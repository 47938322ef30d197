//! The consumer side: N shards, each owning a [`SmootherPool`], drained in
//! batches.

use crate::ingress::{Ingress, Op};
use crate::stats::{ShardMetrics, ShardStats, Stats};
use futures::channel::mpsc;
use kalman_model::{KalmanError, Result, StreamEvent};
use kalman_obs::Histogram;
use kalman_par::ExecPolicy;
use kalman_stream::{
    FinalizedStep, PollBatch, PollEntry, SmootherPool, StreamId, StreamingSmoother, WindowSnapshot,
};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Distinguishes the metric namespaces (`serve.pool{N}.*`) of pools
/// created in the same process.
static POOL_SEQ: AtomicUsize = AtomicUsize::new(0);

/// Stable FNV-1a shard assignment: identical for the same key on every
/// handle, process, and run — the property that lets producers route
/// without coordination and lets a future cross-process deployment agree
/// on placement.
pub fn stable_shard(key: u64, shards: usize) -> usize {
    debug_assert!(shards > 0);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.to_le_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % shards as u64) as usize
}

/// Configuration of a [`ShardedPool`].
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Number of shards (≥ 1).  Each shard owns an independent
    /// [`SmootherPool`], so shards share nothing and scale by
    /// replication.
    pub shards: usize,
    /// Per-shard ingestion queue bound (≥ 1).  Memory under producer
    /// overload is `shards · queue_capacity` queued events — submission
    /// backpressure, not queue growth, absorbs bursts.
    pub queue_capacity: usize,
    /// Execution policy of each shard's batched flush (cross-stream
    /// parallelism; see [`SmootherPool`]).
    pub policy: ExecPolicy,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 4,
            queue_capacity: 1024,
            policy: ExecPolicy::par(),
        }
    }
}

/// Where a stream currently lives.
#[derive(Debug, Clone, Copy)]
struct Location {
    shard: usize,
    id: StreamId,
}

/// A set of one shard's streams for the duration of a drain: a flag per
/// pool slot ([`StreamId::index`]) plus the list of slots that are set,
/// which is what `clear` walks.  Probed twice per event, so it is a vector
/// lookup, not a hash.
#[derive(Default)]
struct StreamFlags {
    flags: Vec<bool>,
    set: Vec<StreamId>,
}

impl StreamFlags {
    fn contains(&self, id: StreamId) -> bool {
        self.flags.get(id.index()).is_some_and(|&f| f)
    }

    fn insert(&mut self, id: StreamId) {
        let slot = id.index();
        if slot >= self.flags.len() {
            self.flags.resize(slot + 1, false);
        }
        if !self.flags[slot] {
            self.flags[slot] = true;
            self.set.push(id);
        }
    }

    fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    fn clear(&mut self) {
        for id in self.set.drain(..) {
            self.flags[id.index()] = false;
        }
    }
}

/// One shard: an independent pool plus its queue and metric handles.
struct Shard {
    pool: SmootherPool,
    /// Streams with gated events — exactly the streams the next flush
    /// pass may flush.
    blocked: StreamFlags,
    /// Streams whose flush failed during the current drain: gating is
    /// disabled for them (their windows grow until solvable) and the
    /// failure is counted exactly once.  Cleared at the end of each
    /// drain, so recovered streams rejoin the canonical cadence.
    failed: StreamFlags,
    /// Streams the current drain applied an `Evolve` to: the ones with
    /// forward steps pending when its pass loop ends.
    evolved: StreamFlags,
    rx: mpsc::Receiver<Op>,
    /// Output batches of the current drain, one per flush pass (reused
    /// across drains at their high-water mark).
    batches: Vec<PollBatch>,
    /// Flush passes the current drain has run (`batches[..passes_used]`).
    passes_used: usize,
    /// Reverse map from pool-local ids to serving keys.
    keys: HashMap<StreamId, u64>,
    /// Registry handles (shared by copy with the [`Ingress`] side); every
    /// counter below lives in the `kalman-obs` registry, so exporters see
    /// it with no extra wiring.
    metrics: ShardMetrics,
    queue_capacity: usize,
    /// Ingestion failures of the most recent drain (cleared per drain).
    errors: Vec<(u64, KalmanError)>,
}

/// What one [`ShardedPool::drain`] accomplished.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrainSummary {
    /// Queued operations applied.
    pub ops: usize,
    /// Streams whose windows flushed successfully.
    pub flushed_streams: usize,
    /// Finalized steps emitted.
    pub flushed_steps: usize,
    /// Ingestion + flush errors encountered (see
    /// [`ShardedPool::last_errors`]).
    pub errors: usize,
}

/// A sharded, backpressured serving layer over [`SmootherPool`]s.
///
/// `N` shards each own an independent pool (streams, output batch) and a
/// bounded ingestion queue.  Producers submit events through
/// cloneable [`Ingress`] handles, routed by a stable hash of the stream
/// key; when a queue is full, submission fails fast
/// ([`crate::SubmitError::WouldBlock`]) or parks the producer task (async
/// [`Ingress::submit`]) — the pool's memory stays bounded no matter how
/// fast producers run.  The owner calls [`ShardedPool::drain`] at its
/// serving cadence: each shard empties its queue into its streams and
/// batch-flushes full windows on the canonical evolve-triggered cadence
/// (see [`ShardedPool::drain`]), so the zero-steady-state-allocation
/// property of the pool's flush path extends end to end through the
/// serving layer.
///
/// Sharding is transparent to results: a stream's events pass through
/// exactly one queue in order, and the canonical cadence re-smooths the
/// same windows no matter how drains and backpressure sliced the flow —
/// per-stream outputs are **bitwise identical** to serving every stream
/// from one big [`SmootherPool`], for any shard count and any load
/// (pinned by `tests/serving.rs` and the saturation case of
/// `tests/alloc_steady_state.rs`).
///
/// # Example
///
/// ```
/// use kalman_serve::{ServeConfig, ShardedPool};
/// use kalman_stream::{StreamOptions, StreamingSmoother};
/// use kalman_model::{CovarianceSpec, Evolution, Observation, StreamEvent};
/// use kalman_par::ExecPolicy;
/// use kalman_dense::Matrix;
///
/// let cfg = ServeConfig { shards: 2, queue_capacity: 64, policy: ExecPolicy::Seq };
/// let (mut pool, mut ingress) = ShardedPool::new(cfg);
/// let opts = StreamOptions { lag: 4, flush_every: 2, policy: ExecPolicy::Seq,
///                            ..StreamOptions::default() };
/// pool.insert(7, StreamingSmoother::with_prior(
///     vec![0.0], CovarianceSpec::Identity(1), opts).unwrap()).unwrap();
///
/// for i in 0..12 {
///     if i > 0 {
///         ingress.try_evolve(7, Evolution::random_walk(1)).unwrap();
///     }
///     ingress.try_observe(7, Observation {
///         g: Matrix::identity(1),
///         o: vec![i as f64 * 0.1],
///         noise: CovarianceSpec::Identity(1),
///     }).unwrap();
/// }
/// let summary = pool.drain();
/// assert!(summary.flushed_steps > 0);
/// let (key, entry) = pool.outputs().next().unwrap();
/// assert_eq!(key, 7);
/// assert!(entry.result().unwrap().len() > 0);
/// ```
pub struct ShardedPool {
    shards: Vec<Shard>,
    route: HashMap<u64, Location>,
    /// Events gated by the canonical flush cadence (an evolve arriving on
    /// a full window, plus everything behind it), waiting for the next
    /// flush pass of the current drain.  Capacity retained across drains;
    /// always empty between drains.
    deferred: VecDeque<(Location, u64, StreamEvent)>,
    /// Ping-pong twin of `deferred` for the pass loop.
    redeferred: VecDeque<(Location, u64, StreamEvent)>,
    /// This pool's metric-name prefix (`serve.pool{N}`).
    metrics_prefix: String,
    /// Whole-drain latency histogram (`{prefix}.drain_latency`).
    drain_hist: &'static Histogram,
}

impl ShardedPool {
    /// Builds the pool and its first [`Ingress`] handle (clone the handle
    /// per producer).
    ///
    /// # Panics
    ///
    /// Panics when `cfg.shards` or `cfg.queue_capacity` is zero.
    pub fn new(cfg: ServeConfig) -> (ShardedPool, Ingress) {
        assert!(cfg.shards >= 1, "need at least one shard");
        assert!(cfg.queue_capacity >= 1, "need a positive queue capacity");
        // Wire the dense workspace-pool counters into the registry so the
        // exporters report them alongside the serving metrics.
        kalman_dense::register_workspace_gauges();
        // Relaxed: unique-ID counter — only atomicity matters, nothing is
        // published under it.
        let pool_seq = POOL_SEQ.fetch_add(1, Ordering::Relaxed);
        let metrics_prefix = format!("serve.pool{pool_seq}");
        let drain_hist = kalman_obs::histogram(&format!("{metrics_prefix}.drain_latency"));
        let mut shards = Vec::with_capacity(cfg.shards);
        let mut senders = Vec::with_capacity(cfg.shards);
        let mut metrics = Vec::with_capacity(cfg.shards);
        for s in 0..cfg.shards {
            let (tx, rx) = mpsc::channel(cfg.queue_capacity);
            let handles = ShardMetrics::register(&metrics_prefix, s);
            shards.push(Shard {
                pool: SmootherPool::new(cfg.policy),
                blocked: StreamFlags::default(),
                failed: StreamFlags::default(),
                evolved: StreamFlags::default(),
                rx,
                batches: Vec::new(),
                passes_used: 0,
                keys: HashMap::new(),
                metrics: handles,
                queue_capacity: cfg.queue_capacity,
                errors: Vec::new(),
            });
            senders.push(tx);
            metrics.push(handles);
        }
        // Also forces the journal's one-time ring allocation to happen
        // here, before any steady-state drain.
        kalman_obs::event("serve.pool_created", pool_seq as u64, cfg.shards as u64);
        (
            ShardedPool {
                shards,
                route: HashMap::new(),
                deferred: VecDeque::new(),
                redeferred: VecDeque::new(),
                metrics_prefix,
                drain_hist,
            },
            Ingress { senders, metrics },
        )
    }

    /// The pool's metric-name prefix in the `kalman-obs` registry
    /// (`serve.pool{N}`; shard metrics live at
    /// `{prefix}.shard{S}.{leaf}`).
    pub fn metrics_prefix(&self) -> &str {
        &self.metrics_prefix
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Total live streams across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.pool.len()).sum()
    }

    /// `true` when no stream is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The home shard of a key (stable hash; where its events are queued).
    pub fn home_shard(&self, key: u64) -> usize {
        stable_shard(key, self.shards.len())
    }

    /// The shard a key's stream currently lives on (differs from
    /// [`ShardedPool::home_shard`] after a [`ShardedPool::rebalance`]), or
    /// `None` for unknown keys.
    pub fn shard_of(&self, key: u64) -> Option<usize> {
        self.route.get(&key).map(|loc| loc.shard)
    }

    /// Drops a shard's pending flush outputs.  Called whenever the
    /// shard's stream set changes between drains: the underlying pool
    /// reuses freed id slots, so a stale [`PollEntry`] could otherwise be
    /// attributed to a *new* stream that took the removed stream's slot.
    /// Read [`ShardedPool::outputs`] before mutating the stream set.
    fn invalidate_outputs(&mut self, shard: usize) {
        self.shards[shard].passes_used = 0;
    }

    /// Registers a stream under `key` on its home shard (auto-flush is
    /// disabled by the underlying pool).  Returns the shard index.
    ///
    /// Invalidates the shard's pending [`ShardedPool::outputs`] (the new
    /// stream may reuse a removed stream's slot).
    ///
    /// # Errors
    ///
    /// [`KalmanError::Stream`] when the key is already registered.
    pub fn insert(&mut self, key: u64, stream: StreamingSmoother) -> Result<usize> {
        if self.route.contains_key(&key) {
            return Err(KalmanError::Stream(format!(
                "stream key {key} is already registered"
            )));
        }
        let shard = self.home_shard(key);
        self.place(shard, key, stream);
        Ok(shard)
    }

    /// Registers `stream` under `key` on `shard`.
    fn place(&mut self, shard: usize, key: u64, stream: StreamingSmoother) {
        self.invalidate_outputs(shard);
        let id = self.shards[shard].pool.insert(stream);
        self.shards[shard].keys.insert(id, key);
        self.route.insert(key, Location { shard, id });
    }

    /// Read access to one stream.
    pub fn stream(&self, key: u64) -> Option<&StreamingSmoother> {
        let loc = self.route.get(&key)?;
        self.shards[loc.shard].pool.stream(loc.id)
    }

    /// Every registered stream with its key, in unspecified order — the
    /// iteration surface for whole-pool maintenance (a cluster worker
    /// snapshots all of its residents through this).
    pub fn streams(&self) -> impl Iterator<Item = (u64, &StreamingSmoother)> + '_ {
        (self.route.iter())
            .filter_map(|(&key, loc)| Some((key, self.shards[loc.shard].pool.stream(loc.id)?)))
    }

    /// Applies one event to a resident stream, recording failures and the
    /// streams that evolved.
    fn apply(shard: &mut Shard, id: StreamId, key: u64, event: StreamEvent) {
        let evolve = matches!(event, StreamEvent::Evolve(_));
        match shard.pool.ingest(id, event) {
            Ok(()) if evolve => shard.evolved.insert(id),
            Ok(()) => {}
            Err(e) => {
                shard.metrics.ingest_errors.inc();
                shard.errors.push((key, e));
            }
        }
    }

    /// Applies one routed event unless the canonical cadence gates it: an
    /// evolve arriving on a full window waits for the flush that evolve
    /// triggers, and every later event of that stream queues up behind it
    /// (per-stream order is sacred).  Returns whether the event was
    /// applied.
    fn gate_or_apply(&mut self, loc: Location, key: u64, event: StreamEvent) {
        // A stream whose flush already failed this drain stops gating (its
        // window grows until solvable; see the `drain` docs), so its
        // deferred backlog can never wedge or re-run the failing flush.
        let shard = &mut self.shards[loc.shard];
        let gated = !shard.failed.contains(loc.id)
            && (shard.blocked.contains(loc.id)
                || (matches!(event, StreamEvent::Evolve(_))
                    && matches!(shard.pool.stream(loc.id), Some(s) if s.ready())));
        if gated {
            shard.metrics.gated.inc();
            shard.blocked.insert(loc.id);
            self.deferred.push_back((loc, key, event));
        } else {
            Self::apply(shard, loc.id, key, event);
        }
    }

    /// One flush pass over shard `s`: batch-flushes exactly the streams
    /// the canonical cadence has gated, into the next reused batch slot.
    fn flush_pass(&mut self, s: usize, summary: &mut DrainSummary) {
        let shard = &mut self.shards[s];
        if shard.blocked.is_empty() {
            return;
        }
        let pass = shard.passes_used;
        if shard.batches.len() == pass {
            shard.batches.push(PollBatch::new());
        }
        let blocked = &shard.blocked;
        let start = Instant::now();
        shard
            .pool
            .poll_into_where(&mut shard.batches[pass], |id| blocked.contains(id));
        let ns = start.elapsed().as_nanos() as u64;
        shard.passes_used += 1;
        // `flush_latency.count` doubles as the flush counter.
        shard.metrics.flush_latency.record(ns);
        shard.metrics.last_flush_ns.set(ns as i64);
        for entry in shard.batches[pass].entries() {
            match entry.result() {
                Ok(steps) => {
                    shard.metrics.flushed_streams.inc();
                    shard.metrics.flushed_steps.add(steps.len() as u64);
                    summary.flushed_streams += 1;
                    summary.flushed_steps += steps.len();
                }
                Err(_) => {
                    // Counted once per drain: the stream joins `failed`,
                    // which stops gating it, so no later pass re-runs the
                    // failing flush.
                    shard.metrics.flush_errors.inc();
                    let key = shard.keys.get(&entry.id()).copied().unwrap_or(u64::MAX);
                    kalman_obs::event("serve.flush_error", key, s as u64);
                    summary.errors += 1;
                    shard.failed.insert(entry.id());
                }
            }
        }
    }

    /// One serving tick: empty every shard's queue into its streams and
    /// batch-flush on the **canonical cadence** — a stream's window is
    /// re-smoothed exactly when an evolve arrives on a full window, the
    /// same moment a standalone auto-flushing [`StreamingSmoother`] would
    /// flush.  Surplus events are gated inside the drain and applied in
    /// passes, each pass batch-flushing all gated streams of a shard in
    /// one parallel [`SmootherPool::poll_into_where`] call; a stream that
    /// merely *became* full stays buffered until its next evolve (next
    /// drain), again matching the standalone cadence.
    ///
    /// Before the drain returns, every stream it applied an `Evolve` to
    /// runs its pending forward steps, in one
    /// [`SmootherPool::eliminate_pending`] batch per shard (span
    /// `serve.eliminate`).  The steps are eliminated while their events
    /// are still warm, at the end of the drain that delivered them, so a
    /// later flush is only the downward sweep and the emit: the flush an
    /// evolve triggers runs no forward step, and the step that evolve
    /// retires is eliminated at the end of the same drain.  That moves
    /// work, not bits: each forward step runs on the same operands as it
    /// would inside the flush.  A step that cannot be eliminated stays
    /// pending, and the stream's next flush reports the error, as it would
    /// have.
    ///
    /// Two properties follow.  **Timing-independence:** every window a
    /// stream ever flushes has the same canonical shape and content no
    /// matter how drains, shards, queue bounds, or backpressure sliced
    /// the event flow — per-stream results are bitwise identical to an
    /// unsharded pool and to a standalone stream (pinned by
    /// `tests/serving.rs` and the saturation case of
    /// `tests/alloc_steady_state.rs`).  **Allocation-freedom:** one
    /// window shape per stream means every flush reuses the storage the
    /// first one sized, so a steady-state drain — queue pops, event application, batched
    /// flushes, producer wake-ups — performs **zero heap allocations**
    /// end to end — eliminations included.
    ///
    /// The one exception to gating: a stream whose flush *fails* (e.g.
    /// still rank-deficient) stops gating its ingestion — its window
    /// grows past the canonical shape until it becomes solvable, so no
    /// data is ever dropped or stuck behind an unsolvable flush.
    ///
    /// Results are read back through [`ShardedPool::outputs`] (valid
    /// until the next drain); ingestion failures through
    /// [`ShardedPool::last_errors`].
    pub fn drain(&mut self) -> DrainSummary {
        let drain_start = Instant::now();
        let mut summary = DrainSummary::default();
        for s in 0..self.shards.len() {
            // Clear the previous drain's output and error state (all
            // capacity retained).
            self.shards[s].errors.clear();
            self.shards[s].passes_used = 0;
        }
        debug_assert!(
            self.deferred.is_empty()
                && self.shards.iter().all(|shard| shard.blocked.is_empty()
                    && shard.failed.is_empty()
                    && shard.evolved.is_empty())
        );
        // One clock read dates every op of this drain: an op's queue wait
        // runs to the moment the drain that pops it began.
        let popped_at = kalman_obs::Stamp::now();
        // Pop every queue, routing each op to the shard its stream lives
        // on (post-rebalance this can differ from the queue's shard) and
        // applying it unless the canonical cadence gates it.
        for s in 0..self.shards.len() {
            loop {
                let Op { key, event, stamp } = match self.shards[s].rx.try_next() {
                    Ok(Some(op)) => op,
                    // Empty (senders parked on it stay parked) or all
                    // handles dropped — either way this queue is done.
                    _ => break,
                };
                summary.ops += 1;
                self.shards[s].metrics.drained.inc();
                if let Some(ns) = stamp.ns_until(&popped_at) {
                    self.shards[s].metrics.queue_wait.record(ns);
                }
                match self.route.get(&key).copied() {
                    Some(loc) => {
                        self.gate_or_apply(loc, key, event);
                    }
                    None => {
                        let shard = &mut self.shards[s];
                        shard.metrics.ingest_errors.inc();
                        shard.errors.push((
                            key,
                            KalmanError::Stream(format!("no stream registered for key {key}")),
                        ));
                    }
                }
            }
        }
        // Pass loop: flush the gated streams of every shard in one
        // parallel batch each, then apply what those flushes unblocked.
        // Progress is guaranteed: every gated stream either flushes
        // (freeing window room for its deferred evolves) or enters
        // `failed` (which disables its gating outright), so each round
        // strictly shrinks the backlog.
        while !self.deferred.is_empty() {
            for s in 0..self.shards.len() {
                self.flush_pass(s, &mut summary);
            }
            for shard in &mut self.shards {
                shard.blocked.clear();
            }
            std::mem::swap(&mut self.deferred, &mut self.redeferred);
            while let Some((loc, key, event)) = self.redeferred.pop_front() {
                self.gate_or_apply(loc, key, event);
            }
        }
        // The forward steps of this drain's evolves, one batch per shard.
        for shard in &mut self.shards {
            if !shard.evolved.is_empty() {
                let _span = kalman_obs::span!("serve.eliminate");
                let evolved = shard.evolved.set.iter().copied();
                shard.pool.eliminate_pending(evolved);
                shard.evolved.clear();
            }
            shard.blocked.clear();
            shard.failed.clear();
        }
        for shard in &self.shards {
            summary.errors += shard.errors.len();
        }
        self.drain_hist
            .record(drain_start.elapsed().as_nanos() as u64);
        summary
    }

    /// The most recent drain's flush results: `(key, entry)` per flush,
    /// in emission order (pass by pass, shard by shard) — a stream that
    /// flushed several window quanta in one drain appears once per
    /// quantum, chronologically.  Entries persist until the next
    /// [`ShardedPool::drain`] — or until the shard's stream set changes
    /// ([`ShardedPool::insert`] / [`ShardedPool::finish`] /
    /// [`ShardedPool::rebalance`] invalidate the affected shard's
    /// entries, because the pool reuses freed stream slots), so read
    /// outputs *before* mutating the stream set.
    pub fn outputs(&self) -> impl Iterator<Item = (u64, &PollEntry)> + '_ {
        let passes = self.shards.iter().map(|s| s.passes_used).max().unwrap_or(0);
        (0..passes).flat_map(move |pass| {
            self.shards
                .iter()
                .filter(move |shard| pass < shard.passes_used)
                .flat_map(move |shard| {
                    shard.batches[pass]
                        .entries()
                        .iter()
                        .filter_map(|entry| Some((*shard.keys.get(&entry.id())?, entry)))
                })
        })
    }

    /// The most recent drain's ingestion failures (`(key, error)`), shard
    /// by shard.  Cleared at the start of every drain.
    pub fn last_errors(&self) -> impl Iterator<Item = &(u64, KalmanError)> + '_ {
        self.shards.iter().flat_map(|shard| shard.errors.iter())
    }

    /// Moves a stream to another shard through the exact finish → restore
    /// path: the source pool finalizes the stream's whole window
    /// (`finish`), the finished stream's [`WindowSnapshot`] is restored on
    /// the target shard, and the finalized tail is returned to the caller
    /// — these steps left the lag window early, so they were finalized
    /// with whatever hindsight the stream had at migration time (the same
    /// contract as any finish).  Because producers route by the
    /// *stable* hash, their ops keep arriving on the home shard's queue
    /// and are forwarded during drains; only the flush work moves.
    ///
    /// A no-op returning an empty tail when the stream already lives on
    /// `to`.
    ///
    /// # Errors
    ///
    /// Unknown key or shard; or the final window smooth failed, in which
    /// case the stream could not be finished and **is dropped** (the
    /// same contract as [`SmootherPool::finish`] — the caller sees the
    /// error and the key becomes free).
    pub fn rebalance(&mut self, key: u64, to: usize) -> Result<Vec<FinalizedStep>> {
        if to >= self.shards.len() {
            return Err(KalmanError::Stream(format!(
                "shard {to} out of range ({} shards)",
                self.shards.len()
            )));
        }
        if self.shard_of(key) == Some(to) {
            return Ok(Vec::new());
        }
        let opts = *self
            .stream(key)
            .ok_or_else(|| KalmanError::Stream(format!("no stream registered for key {key}")))?
            .options();
        kalman_obs::event("serve.rebalance", key, to as u64);
        let (tail, finished) = self.finish(key)?;
        self.place(to, key, StreamingSmoother::restore(finished, opts)?);
        Ok(tail)
    }

    /// Ends one stream: removes it, finalizes its whole window, and
    /// returns the tail with the finished stream's [`WindowSnapshot`].
    ///
    /// # Errors
    ///
    /// Unknown key, or the final smoothing error (the stream is removed
    /// either way).
    pub fn finish(&mut self, key: u64) -> Result<(Vec<FinalizedStep>, WindowSnapshot)> {
        let loc = self
            .route
            .remove(&key)
            .ok_or_else(|| KalmanError::Stream(format!("no stream registered for key {key}")))?;
        self.invalidate_outputs(loc.shard);
        self.shards[loc.shard].keys.remove(&loc.id);
        self.shards[loc.shard].pool.finish(loc.id)
    }

    /// A metrics snapshot across all shards (allocates the snapshot; take
    /// it at reporting frequency, not per drain).
    pub fn stats(&self) -> Stats {
        Stats {
            shards: self
                .shards
                .iter()
                .map(|shard| {
                    let m = &shard.metrics;
                    let flush_latency = m.flush_latency.snapshot();
                    let submitted = m.submitted.get();
                    let drained = m.drained.get();
                    ShardStats {
                        streams: shard.pool.len(),
                        ready: shard.pool.ready_len(),
                        // Saturating: a producer on another thread
                        // increments its submit counter only after the
                        // enqueue, so a racing snapshot may briefly see
                        // drained ahead of submitted.
                        queue_depth: submitted.saturating_sub(drained) as usize,
                        queue_capacity: shard.queue_capacity,
                        submitted,
                        throttled: m.throttled.get(),
                        drained,
                        ingest_errors: m.ingest_errors.get(),
                        flushes: flush_latency.count,
                        flushed_streams: m.flushed_streams.get(),
                        flushed_steps: m.flushed_steps.get(),
                        flush_errors: m.flush_errors.get(),
                        gated: m.gated.get(),
                        last_flush: std::time::Duration::from_nanos(m.last_flush_ns.get() as u64),
                        total_flush: std::time::Duration::from_nanos(flush_latency.sum),
                        flush_latency,
                        queue_wait: m.queue_wait.snapshot(),
                    }
                })
                .collect(),
            drain_latency: self.drain_hist.snapshot(),
        }
    }
}
