//! The supervisor: cross-process sharded serving with crash recovery.
//!
//! A [`Supervisor`] owns `workers` shard slots and reaches each one only
//! through its link ([`crate::link`]): send a frame, receive frames until
//! a deadline, kill, respawn, and whether the host can die.  A slot
//! normally runs a child process (a re-exec of the current binary gated
//! by [`crate::SOCKET_ENV`]) speaking the framed protocol over a Unix
//! socket; [`Supervisor::in_memory`] runs every host in this process
//! instead.  Keys route to slots by the same [`stable_shard`] hash the
//! in-process [`ShardedPool`] uses.
//!
//! # Durability model
//!
//! On a slot whose host can die, every mutation (insert, event, finish)
//! is encoded once, and its frame goes to the slot's in-memory
//! **write-ahead log** as it is sent, before any reply is read.
//! Periodically (every [`ClusterConfig::checkpoint_every`] events) the
//! supervisor asks the host for a **snapshot** of every resident stream —
//! the live window, not an early finalization — and on the ack truncates
//! the log prefix the snapshot covers.  The ack carries each stream as the
//! `K_INSERT` payload that restores it (a
//! [`StreamInit::Resume`](crate::StreamInit::Resume) spec); the
//! supervisor keeps those bytes without decoding them.  A host death
//! (heartbeat miss, hang-up, nonzero exit, corrupt frame) therefore never
//! loses data: the slot is restarted with bounded exponential backoff,
//! and the acked inserts and the logged frames are sent again, byte for
//! byte.  Replay regenerates exactly the outputs the dead host would
//! have produced (snapshots are bitwise-transparent and the flush cadence
//! is canonical), and a per-key output cursor drops the prefix the
//! supervisor already delivered — every finalized step is delivered
//! **exactly once**, bitwise equal to in-process serving.
//!
//! After [`ClusterConfig::crash_budget`] consecutive restarts a slot
//! **degrades**: its link becomes an in-memory one that cannot die, and
//! the same snapshot inserts + log suffix are replayed into it —
//! graceful degradation, still no data loss.  Its entries still go
//! through encode, CRC, decode and the worker's own frame handler, so it
//! reports the same outputs, stream errors and finish results a worker
//! does.  A host that cannot die needs no log, so a degraded slot keeps
//! none and takes no checkpoints.
//!
//! `finish` drops a key's output cursor with its closing snapshot, so a
//! replay of the finished stream's entries credits nothing.  The key is
//! free again once no log entry mentions it — on a degraded slot, which
//! keeps no log, at once; otherwise when a snapshot ack truncates its
//! `Finish`.  Until then a crash replay would run the old stream against
//! a new one's cursor, so [`Supervisor::insert`] refuses the key.

use crate::error::{ClusterError, Result};
use crate::fault::FaultPlan;
use crate::link::{Link, MemoryLink, ProcessLink};
use crate::proto::{
    encode_spec, Incoming, StreamSpec, K_CONFIG, K_EVENT, K_FINISH, K_INSERT, K_PING, K_POLL,
    K_SHUTDOWN, K_SNAPSHOT_REQ,
};
use kalman_model::{KalmanError, StreamEvent};
use kalman_obs::{Counter, Histogram};
use kalman_serve::stable_shard;
#[cfg(test)]
use kalman_stream::StreamOptions;
use kalman_stream::{FinalizedStep, WindowSnapshot};
use kalman_wire::{codec, Writer};
use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

/// Cluster deployment and recovery policy.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of shard slots (worker processes), ≥ 1.
    pub workers: usize,
    /// Per-worker ingestion queue bound (the worker's internal
    /// [`kalman_serve::ShardedPool`] queue).
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

/// One durable mutation as the frame that carries it: encoded once, and
/// sent again verbatim by a replay.
struct Entry {
    kind: u8,
    key: u64,
    payload: Vec<u8>,
}

impl Entry {
    /// The frame of `kind` whose payload is `key`, then what `body`
    /// appends, built in the reusable buffer `w`.
    fn encode(w: &mut Writer, kind: u8, key: u64, body: impl FnOnce(&mut Writer)) -> Entry {
        w.clear();
        w.put_u64(key);
        body(w);
        let payload = w.as_slice().to_vec();
        Entry { kind, key, payload }
    }
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

struct Slot {
    /// The slot's shard host, behind a process or an in-memory link.
    link: Box<dyn Link>,
    /// Frames sent on the current link (fault rules index into this).
    frames_sent: u64,
    /// Entries not yet covered by an acked snapshot, oldest first.
    wal: VecDeque<(u64, Entry)>,
    /// Next log sequence number.
    next_seq: u64,
    /// Every live stream's state at the last acked snapshot: its key and
    /// the `K_INSERT` payload the host encoded to bring it back.
    snapshots: Vec<(u64, Vec<u8>)>,
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
    /// Next output index each live (not yet finished) key owes the
    /// caller — the exactly-once cursor (replayed duplicates fall below it
    /// and are dropped).
    next_emit: HashMap<u64, u64>,
    /// Accepted outputs not yet taken by the caller.
    outputs: HashMap<u64, Vec<FinalizedStep>>,
    /// Closing snapshots of streams whose `finish` is in progress.
    finished: HashMap<u64, WindowSnapshot>,
    /// Stream-level errors reported by workers (mirrors the in-process
    /// pool's `last_errors`).
    stream_errors: Vec<(u64, String)>,
    /// Reusable buffer every entry is encoded in.
    encoder: Writer,
}

impl Supervisor {
    /// Spawns every worker and waits for all of them to connect.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Config`] on a degenerate configuration;
    /// [`ClusterError::Spawn`] when a worker cannot be started.
    pub fn new(cfg: ClusterConfig) -> Result<Supervisor> {
        Supervisor::with_links(cfg, |cfg, slot| {
            Ok(Box::new(ProcessLink::spawn(cfg, slot)?))
        })
    }

    /// A simulated supervisor: every slot's shard host runs in this
    /// process, behind an in-memory link that can die.  Frames still go
    /// through encode, CRC and decode; scripted kills, corrupt and
    /// truncated frames and withheld acks act as on a worker process, and
    /// a restart builds a fresh host — without spawning a process, backing
    /// off or waiting on a reply timeout.  The process-only settings
    /// (`worker_args`, the timeouts) go unused.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Config`] on a degenerate configuration.
    pub fn in_memory(cfg: ClusterConfig) -> Result<Supervisor> {
        Supervisor::with_links(cfg, |_, _| Ok(Box::new(MemoryLink::new(true))))
    }

    /// Validates `cfg`, then opens and greets one link per slot.
    fn with_links(
        cfg: ClusterConfig,
        open: impl Fn(&ClusterConfig, usize) -> Result<Box<dyn Link>>,
    ) -> Result<Supervisor> {
        if cfg.workers == 0 {
            return Err(ClusterError::Config("need at least one worker".into()));
        }
        if cfg.checkpoint_every == 0 {
            return Err(ClusterError::Config("checkpoint_every must be ≥ 1".into()));
        }
        if cfg.queue_capacity == 0 {
            return Err(ClusterError::Config("queue_capacity must be ≥ 1".into()));
        }
        let mut sup = Supervisor {
            fault: cfg.fault_plan.clone(),
            metrics: Metrics::new(),
            slots: Vec::with_capacity(cfg.workers),
            next_emit: HashMap::new(),
            outputs: HashMap::new(),
            finished: HashMap::new(),
            stream_errors: Vec::new(),
            encoder: Writer::new(),
            cfg,
        };
        for slot in 0..sup.cfg.workers {
            sup.slots.push(Slot {
                link: open(&sup.cfg, slot)?,
                frames_sent: 0,
                wal: VecDeque::new(),
                next_seq: 0,
                snapshots: Vec::new(),
                events_delivered: 0,
                events_since_ckpt: 0,
                restarts: 0,
            });
            sup.handshake(slot)?;
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
            degraded: self.slots.iter().map(|s| !s.link.can_die()).collect(),
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
    /// [`ClusterError::Kalman`] for a live key, and for a finished key
    /// that its slot's write-ahead log still mentions (it is free again
    /// once a snapshot ack truncates its `Finish`).
    pub fn insert(&mut self, key: u64, spec: StreamSpec) -> Result<()> {
        let slot = self.slot_of(key);
        // The log is truncated by prefix, so a key that is not live is in
        // it exactly when its `Finish` is.
        let logged = (self.slots[slot].wal.iter()).any(|(_, e)| e.kind == K_FINISH && e.key == key);
        if self.next_emit.contains_key(&key) || logged {
            return Err(ClusterError::Kalman(KalmanError::Stream(format!(
                "stream key {key} is already registered, or its finished stream is still logged"
            ))));
        }
        self.next_emit.insert(key, spec.first_index());
        let entry = Entry::encode(&mut self.encoder, K_INSERT, key, |w| encode_spec(w, &spec));
        self.log_and_deliver(slot, entry)
    }

    /// Routes one event to its stream.
    ///
    /// # Errors
    ///
    /// [`ClusterError::UnknownKey`] for unregistered keys.  Transport
    /// failures are handled internally (recovery); what surfaces is
    /// recovery itself failing beyond repair.
    pub fn send(&mut self, key: u64, event: StreamEvent) -> Result<()> {
        if !self.next_emit.contains_key(&key) {
            return Err(ClusterError::UnknownKey(key));
        }
        let slot = self.slot_of(key);
        self.metrics.events.inc();
        let entry = Entry::encode(&mut self.encoder, K_EVENT, key, |w| {
            codec::encode_event(w, &event)
        });
        self.log_and_deliver(slot, entry)?;
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

    /// Forcibly kills a slot's host **without** recovering it: the next
    /// poll or heartbeat notices the death and runs the normal recovery
    /// path.  An operational hook (rolling a worker onto a new binary, or
    /// exercising recovery in tests); degraded slots ignore it.
    pub fn kill_worker(&mut self, slot: usize) {
        if let Some(s) = self.slots.get_mut(slot) {
            s.link.kill(Duration::ZERO);
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

    /// Pings every slot's host; one that stays silent past the heartbeat
    /// timeout is declared dead and recovered.
    ///
    /// # Errors
    ///
    /// Only unrecoverable failures.
    pub fn heartbeat(&mut self) -> Result<()> {
        for slot in 0..self.slots.len() {
            let timeout = self.cfg.heartbeat_timeout;
            let pinged = (self.send_frame(slot, K_PING, &[]))
                .and_then(|()| self.pump_until(slot, timeout, |s| *s == Seen::Pong));
            if let Err(e) = pinged {
                kalman_obs::event("cluster.heartbeat_miss", slot as u64, 0);
                self.recover_from(slot, e)?;
            }
        }
        Ok(())
    }

    /// Finishes a stream: applies everything queued for it, returns every
    /// not-yet-taken finalized step (ending with the closing window) and
    /// the finished stream's snapshot (nothing buffered; a
    /// [`StreamInit::Resume`](crate::StreamInit::Resume) spec continues
    /// it).
    ///
    /// # Errors
    ///
    /// [`ClusterError::UnknownKey`] for unregistered keys;
    /// [`ClusterError::Kalman`] when the stream's closing flush failed.
    pub fn finish(&mut self, key: u64) -> Result<(Vec<FinalizedStep>, WindowSnapshot)> {
        if !self.next_emit.contains_key(&key) {
            return Err(ClusterError::UnknownKey(key));
        }
        let slot = self.slot_of(key);
        let restarts = self.slots[slot].restarts;
        let entry = Entry::encode(&mut self.encoder, K_FINISH, key, |_| {});
        self.log_and_deliver(slot, entry)?;
        // A recovery during delivery replayed the finish and pumped its
        // reply — success or failure.
        if self.slots[slot].restarts == restarts {
            if let Err(e) = self.await_finish(slot, key) {
                self.recover_from(slot, e)?;
            }
        }
        self.next_emit.remove(&key);
        let Some(snapshot) = self.finished.remove(&key) else {
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
        Ok((steps, snapshot))
    }

    /// Stops every host (clean shutdown frame, then force-kill after a
    /// grace period).  Dropping the supervisor kills workers too; this
    /// is the polite version.
    pub fn shutdown(mut self) {
        for slot in 0..self.slots.len() {
            let _ = self.send_frame(slot, K_SHUTDOWN, &[]);
            self.slots[slot].link.kill(Duration::from_secs(2));
        }
    }

    // ---- internals ----------------------------------------------------

    /// Delivers the entry and appends it to the slot's log (kept only
    /// where the host can die) before any reply is read; a transport
    /// failure triggers recovery, whose replay re-delivers the logged
    /// entry.
    fn log_and_deliver(&mut self, slot: usize, entry: Entry) -> Result<()> {
        let sent = self.send_entry(slot, entry.kind, &entry.payload);
        let s = &mut self.slots[slot];
        if s.link.can_die() {
            s.wal.push_back((s.next_seq, entry));
            s.next_seq += 1;
        }
        sent.or_else(|e| self.recover_from(slot, e))
    }

    /// Sends one log entry's frame.  A scripted kill fires right after its
    /// event is sent, in delivery and in replay alike.
    fn send_entry(&mut self, slot: usize, kind: u8, payload: &[u8]) -> Result<()> {
        self.send_frame(slot, kind, payload)?;
        if kind == K_EVENT {
            let s = &mut self.slots[slot];
            s.events_delivered += 1;
            if self.fault.take_kill(slot, s.events_delivered) {
                // Scripted kill -9: die now, be discovered by whatever
                // interaction comes next.
                s.link.kill(Duration::ZERO);
            }
        }
        Ok(())
    }

    /// Sends one frame on the slot's link.  A link that can die takes the
    /// frame's scripted fault, if any.
    fn send_frame(&mut self, slot: usize, kind: u8, payload: &[u8]) -> Result<()> {
        let s = &mut self.slots[slot];
        s.frames_sent += 1;
        self.metrics.frames_sent.inc();
        let fault = (s.link.can_die())
            .then(|| self.fault.take_frame_fault(slot, s.frames_sent))
            .flatten();
        Ok(s.link.send(kind, payload, fault)?)
    }

    /// Greets a fresh host: its `Hello` in, the serving configuration out
    /// (the link's first frame).
    fn handshake(&mut self, slot: usize) -> Result<()> {
        self.slots[slot].frames_sent = 0;
        self.pump_until(slot, self.cfg.spawn_timeout, |s| *s == Seen::Hello)?;
        let mut payload = Writer::new();
        payload.put_u32(self.cfg.queue_capacity as u32);
        codec::encode_exec_policy(&mut payload, self.cfg.policy);
        self.send_frame(slot, K_CONFIG, payload.as_slice())
    }

    /// Polls one slot (drain + collect outputs), recovering it until the
    /// poll succeeds: the crash budget bounds the restarts, and the
    /// degraded link they end on cannot fail.
    fn poll_slot(&mut self, slot: usize) -> Result<()> {
        loop {
            let timeout = self.cfg.reply_timeout;
            let polled = (self.send_frame(slot, K_POLL, &[]))
                .and_then(|()| self.pump_until(slot, timeout, |s| *s == Seen::Outputs));
            match polled {
                Ok(()) => return Ok(()),
                Err(e) => self.recover_from(slot, e)?,
            }
        }
    }

    /// Requests a snapshot of every stream on the slot and, on ack,
    /// truncates the covered log prefix.  A slot whose host cannot die
    /// keeps no log and takes no checkpoints.
    fn checkpoint_slot(&mut self, slot: usize) -> Result<()> {
        if !self.slots[slot].link.can_die() {
            return Ok(());
        }
        self.slots[slot].events_since_ckpt = 0;
        let seq = self.slots[slot].next_seq.saturating_sub(1);
        let timeout = self.cfg.reply_timeout;
        let acked = (self.send_frame(slot, K_SNAPSHOT_REQ, &seq.to_le_bytes()))
            .and_then(|()| self.pump_until(slot, timeout, |s| *s == Seen::Ack));
        acked.or_else(|e| self.recover_from(slot, e))
    }

    /// Reads and applies the host's frames until `want` is satisfied or
    /// the deadline passes.
    fn pump_until(
        &mut self,
        slot: usize,
        timeout: Duration,
        want: impl Fn(&Seen) -> bool,
    ) -> Result<()> {
        let deadline = Instant::now() + timeout;
        loop {
            let incoming = self.slots[slot].link.recv(deadline, slot)?;
            self.metrics.frames_recv.inc();
            if want(&self.apply_incoming(slot, incoming)) {
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
                    accept_output(&mut self.next_emit, &mut self.outputs, key, step);
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
                snapshot,
            } => {
                self.accept_finished(key, tail, snapshot);
                Seen::Finished(key)
            }
            Incoming::SnapshotAck { seq, inserts } => {
                if self.fault.take_ack_delay(slot) {
                    // Scripted ack loss: behave as if it never arrived —
                    // the log keeps growing and the next crash replays a
                    // longer suffix.
                    kalman_obs::event("cluster.ack_delayed", slot as u64, seq);
                    return Seen::Ack;
                }
                let s = &mut self.slots[slot];
                s.snapshots = inserts;
                (s.snapshots).retain(|(key, _)| self.next_emit.contains_key(key));
                while s.wal.front().is_some_and(|(q, _)| *q <= seq) {
                    s.wal.pop_front();
                }
                self.metrics.snapshots.inc();
                kalman_obs::event("cluster.snapshot_ack", slot as u64, seq);
                Seen::Ack
            }
        }
    }

    /// Accepts the tail and snapshot of a stream whose `finish` is in
    /// progress.  A replay of a stream `finish` already returned finds no
    /// cursor and credits nothing.
    fn accept_finished(&mut self, key: u64, tail: Vec<FinalizedStep>, snapshot: WindowSnapshot) {
        if self.next_emit.contains_key(&key) {
            for step in tail {
                accept_output(&mut self.next_emit, &mut self.outputs, key, step);
            }
            self.finished.insert(key, snapshot);
        }
    }

    /// Pumps the reply to a `Finish`: the worker ships the outputs its
    /// drain banked (errors included), then `Finished` or the finish's own
    /// `StreamError`.  Waiting for the outputs first keeps an earlier
    /// stream error of the same key from passing for the reply.
    fn await_finish(&mut self, slot: usize, key: u64) -> Result<()> {
        let timeout = self.cfg.reply_timeout;
        self.pump_until(slot, timeout, |s| *s == Seen::Outputs)?;
        self.pump_until(
            slot,
            timeout,
            |s| matches!(s, Seen::Finished(k) | Seen::StreamError(k) if *k == key),
        )
    }

    // ---- recovery -----------------------------------------------------

    /// Recovers the slot from the transport failure `e`.  Any other
    /// failure, and any failure of a link that cannot die, is the caller's.
    fn recover_from(&mut self, slot: usize, e: ClusterError) -> Result<()> {
        if is_transport(&e) && self.slots[slot].link.can_die() {
            self.recover(slot)
        } else {
            Err(e)
        }
    }

    /// Brings a dead slot back: restart + replay, with bounded exponential
    /// backoff; past the crash budget the slot degrades to an in-memory
    /// link that cannot die, rebuilt from the same script.
    fn recover(&mut self, slot: usize) -> Result<()> {
        loop {
            let s = &mut self.slots[slot];
            s.link.kill(Duration::ZERO);
            s.restarts += 1;
            self.metrics.restarts.inc();
            let restarts = s.restarts;
            kalman_obs::event("cluster.worker_dead", slot as u64, restarts as u64);
            let backoff = if restarts > self.cfg.crash_budget {
                self.metrics.degraded.inc();
                kalman_obs::event("cluster.degraded", slot as u64, s.wal.len() as u64);
                s.link = Box::new(MemoryLink::new(false));
                Duration::ZERO
            } else {
                let backoff = backoff_for(&self.cfg, restarts);
                kalman_obs::event("cluster.restart", slot as u64, backoff.as_millis() as u64);
                backoff
            };
            match self.respawn_and_replay(slot, backoff) {
                Ok(()) => return Ok(()),
                Err(e) if !self.slots[slot].link.can_die() => return Err(e),
                Err(_) => continue, // counts as another restart
            }
        }
    }

    /// One restart attempt: a fresh host on the slot's link, then the
    /// slot's recovery script — the acked snapshot's inserts and the
    /// logged suffix, sent as they were encoded.  A host that cannot die
    /// keeps no log, so its script is its last.
    fn respawn_and_replay(&mut self, slot: usize, backoff: Duration) -> Result<()> {
        self.slots[slot].link.respawn(&self.cfg, slot, backoff)?;
        self.handshake(slot)?;
        let s = &mut self.slots[slot];
        let depth = s.wal.len() as u64;
        self.metrics.replay_len.record(depth);
        kalman_obs::event("cluster.replay", slot as u64, depth);
        let (inserts, wal) = (std::mem::take(&mut s.snapshots), std::mem::take(&mut s.wal));
        // Finish entries prompt a reply; pump it so socket buffers never
        // back up, and so `finished` is repopulated before the caller
        // looks.
        let acked = inserts.iter().map(|(key, bytes)| (K_INSERT, *key, bytes));
        let logged = wal.iter().map(|(_, e)| (e.kind, e.key, &e.payload));
        let replayed = acked.chain(logged).try_for_each(|(kind, key, payload)| {
            self.send_entry(slot, kind, payload)?;
            if kind == K_FINISH {
                self.await_finish(slot, key)?;
            }
            Ok(())
        });
        let s = &mut self.slots[slot];
        if s.link.can_die() {
            (s.snapshots, s.wal) = (inserts, wal);
        }
        replayed
    }
}

/// Accepts one finalized step through the exactly-once cursor.
fn accept_output(
    next_emit: &mut HashMap<u64, u64>,
    outputs: &mut HashMap<u64, Vec<FinalizedStep>>,
    key: u64,
    step: FinalizedStep,
) {
    let Some(cursor) = next_emit.get_mut(&key) else {
        return; // unknown (already finished and taken): drop
    };
    if step.index < *cursor {
        return; // replayed duplicate
    }
    *cursor = step.index + 1;
    outputs.entry(key).or_default().push(step);
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
    use crate::fault::FrameFault;
    use std::any::Any;
    use std::path::PathBuf;

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

    /// A finish whose own frame is cut off is answered by the recovery
    /// replay.  When that answer is a failure, the supervisor must not
    /// wait for a second one (which never comes) and restart a healthy
    /// worker.
    #[test]
    fn failed_finish_answered_by_replay_is_not_awaited_again() {
        let mut sup = Supervisor::new(ClusterConfig {
            workers: 1,
            reply_timeout: Duration::from_secs(2),
            backoff_base: Duration::from_millis(2),
            worker_args: vec!["supervisor::tests::worker_entry".into(), "--exact".into()],
            // Frame 1 is the config, frame 2 the insert, frame 3 the finish.
            fault_plan: FaultPlan {
                frame_faults: vec![(0, 3, FrameFault::Truncate)],
                ..FaultPlan::default()
            },
            ..ClusterConfig::default()
        })
        .unwrap();
        let spec = StreamSpec {
            init: crate::StreamInit::Fresh { dim: 2 },
            opts: StreamOptions::default(),
        };
        sup.insert(7, spec).unwrap();
        let err = sup.finish(7).unwrap_err().to_string();
        assert!(err.contains("rank deficient"), "{err}");
        assert_eq!(sup.stats().restarts, vec![1]);
        sup.shutdown();
    }

    /// A poll whose frame is cut off twice — on the first connection and
    /// again on the restarted one — recovers twice: a transport failure
    /// inside `poll` is never the caller's while the slot can restart.
    #[test]
    fn poll_recovers_from_a_second_failure_on_the_restarted_worker() {
        let mut sup = Supervisor::new(ClusterConfig {
            workers: 1,
            backoff_base: Duration::from_millis(2),
            worker_args: vec!["supervisor::tests::worker_entry".into(), "--exact".into()],
            // Frame 1 is the config, frame 2 the insert, frame 3 the poll,
            // on the first connection and again after the replay.
            fault_plan: FaultPlan {
                frame_faults: vec![(0, 3, FrameFault::Truncate), (0, 3, FrameFault::Truncate)],
                ..FaultPlan::default()
            },
            ..ClusterConfig::default()
        })
        .unwrap();
        let spec = StreamSpec {
            init: crate::StreamInit::Fresh { dim: 2 },
            opts: StreamOptions::default(),
        };
        sup.insert(7, spec).unwrap();
        sup.poll().unwrap();
        assert_eq!(sup.stats().restarts, vec![2]);
        assert_eq!(sup.stats().degraded, vec![false]);
        sup.shutdown();
    }

    /// `finish` takes a key's closing snapshot and output cursor with it,
    /// on a remote slot (where the ack that truncates the `Finish` must
    /// not bring them back) and on a degraded one.
    #[test]
    fn finished_keys_are_released_with_their_log() {
        for crash_budget in [3, 0] {
            let mut sup = Supervisor::new(ClusterConfig {
                workers: 1,
                crash_budget,
                backoff_base: Duration::from_millis(2),
                worker_args: vec!["supervisor::tests::worker_entry".into(), "--exact".into()],
                ..ClusterConfig::default()
            })
            .unwrap();
            if crash_budget == 0 {
                sup.kill_worker(0);
                sup.poll().unwrap();
                assert_eq!(sup.stats().degraded, vec![true]);
            }
            let spec = StreamSpec {
                init: crate::StreamInit::WithPrior {
                    mean: vec![0.0; 2],
                    cov: kalman_model::CovarianceSpec::Identity(2),
                },
                opts: StreamOptions::default(),
            };
            sup.insert(7, spec).unwrap();
            let (tail, finished) = sup.finish(7).unwrap();
            assert_eq!((tail.len(), finished.index), (1, 0));
            if crash_budget > 0 {
                sup.checkpoint_slot(0).unwrap();
                assert_eq!(sup.stats().wal_depth, vec![0]);
            }
            assert!(sup.finished.is_empty(), "budget {crash_budget}");
            assert!(sup.next_emit.is_empty(), "budget {crash_budget}");
            sup.shutdown();
        }
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
                .map(|slot| {
                    let link: &dyn Any = &*slot.link;
                    let link = link.downcast_ref::<ProcessLink>();
                    link.expect("fresh supervisor has a non-process slot")
                        .socket_path
                        .clone()
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
