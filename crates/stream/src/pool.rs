//! A serving pool multiplexing many independent streams.

use crate::{FinalizedStep, StreamingSmoother, WindowSnapshot};
use kalman_model::{Evolution, KalmanError, Observation, Result, StreamEvent};
use kalman_par::{for_each_mut, ExecPolicy};

/// Handle to one stream inside a [`SmootherPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamId(usize);

impl StreamId {
    /// The pool slot the id names: ids of one pool are small dense
    /// integers (freed slots are reused), so per-stream side tables can be
    /// vectors indexed by this.
    pub fn index(self) -> usize {
        self.0
    }
}

/// One stream's outcome inside a [`PollBatch`].  The slot owns its
/// finalized-step storage, which [`SmootherPool::poll_into`] reuses across
/// polls, so steady-state serving churns no containers.
#[derive(Debug)]
pub struct PollEntry {
    id: StreamId,
    /// The stream itself, moved in for the duration of the parallel flush
    /// (so the batch owns both the stream and its output slot without any
    /// per-poll staging allocations) and moved back before `poll_into`
    /// returns.
    stream: Option<StreamingSmoother>,
    outcome: Result<()>,
    steps: Vec<FinalizedStep>,
}

impl PollEntry {
    fn empty() -> PollEntry {
        PollEntry {
            id: StreamId(usize::MAX),
            stream: None,
            outcome: Ok(()),
            steps: Vec::new(),
        }
    }

    /// The stream this entry belongs to.
    pub fn id(&self) -> StreamId {
        self.id
    }

    /// The flushed steps, or the per-stream flush error (the stream itself
    /// is unchanged on error and recovers on a later poll).
    pub fn result(&self) -> Result<&[FinalizedStep]> {
        match &self.outcome {
            Ok(()) => Ok(&self.steps),
            Err(e) => Err(e.clone()),
        }
    }

    /// `true` when the flush succeeded.
    pub fn is_ok(&self) -> bool {
        self.outcome.is_ok()
    }
}

/// Reusable output storage for [`SmootherPool::poll_into`].
///
/// Slots persist at their high-water mark: a poll that flushes fewer
/// streams than the last one keeps the surplus entries (and their warmed
/// step buffers) parked for the next larger poll, so a fluctuating ready
/// set still serves allocation-free.
#[derive(Debug, Default)]
pub struct PollBatch {
    entries: Vec<PollEntry>,
    /// Entries filled by the most recent poll (`entries[..used]`).
    used: usize,
}

impl PollBatch {
    /// An empty batch (warms up over the first few polls).
    pub fn new() -> PollBatch {
        PollBatch::default()
    }

    /// The per-stream outcomes of the last poll.
    pub fn entries(&self) -> &[PollEntry] {
        &self.entries[..self.used]
    }

    /// Number of streams the last poll flushed.
    pub fn len(&self) -> usize {
        self.used
    }

    /// `true` when the last poll flushed nothing.
    pub fn is_empty(&self) -> bool {
        self.used == 0
    }
}

/// Multiplexes many independent [`StreamingSmoother`]s and batches their
/// window re-smooths through the workspace scheduler — the serving layer
/// for many concurrent users.
///
/// Ingestion ([`SmootherPool::evolve`] / [`SmootherPool::observe`]) only
/// buffers: it is cheap and never re-smooths, so a network front-end can
/// call it on its hot path.  [`SmootherPool::poll`], called whenever the
/// caller wants output (a batching tick, a backpressure boundary), finds
/// every stream with a full window and re-smooths *all of them in one
/// parallel batch* under the pool's [`ExecPolicy`] — cross-stream
/// parallelism, which scales with the number of ready streams and needs no
/// coordination (a stream's own flush is a sequential sweep).  Pooled
/// streams are switched to manual flushing.
pub struct SmootherPool {
    entries: Vec<Option<StreamingSmoother>>,
    policy: ExecPolicy,
    live: usize,
}

impl SmootherPool {
    /// An empty pool whose batched flushes run under `policy`.
    pub fn new(policy: ExecPolicy) -> Self {
        SmootherPool {
            entries: Vec::new(),
            policy,
            live: 0,
        }
    }

    /// Adds a stream (its auto-flush is disabled: the pool owns flushing).
    // lint: allow(alloc, "cold region: stream registration is a control-plane operation, not part of the poll/flush hot path")
    pub fn insert(&mut self, mut stream: StreamingSmoother) -> StreamId {
        stream.set_auto_flush(false);
        self.live += 1;
        for (i, slot) in self.entries.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = Some(stream);
                return StreamId(i);
            }
        }
        self.entries.push(Some(stream));
        StreamId(self.entries.len() - 1)
    }

    /// Number of live streams.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` when the pool has no live streams.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Read access to one stream.
    pub fn stream(&self, id: StreamId) -> Option<&StreamingSmoother> {
        self.entries.get(id.0).and_then(|e| e.as_ref())
    }

    fn stream_mut(&mut self, id: StreamId) -> Result<&mut StreamingSmoother> {
        self.entries
            .get_mut(id.0)
            .and_then(|e| e.as_mut())
            .ok_or_else(|| KalmanError::Stream(format!("no live stream with id {}", id.0)))
    }

    /// Appends a state to one stream (buffering only; never re-smooths).
    ///
    /// # Errors
    ///
    /// Unknown id, or the stream's ingestion errors.
    pub fn evolve(&mut self, id: StreamId, evolution: Evolution) -> Result<()> {
        let finalized = self.stream_mut(id)?.evolve(evolution)?;
        debug_assert!(finalized.is_empty(), "pooled streams never auto-flush");
        Ok(())
    }

    /// Observes the newest state of one stream.
    ///
    /// # Errors
    ///
    /// Unknown id, or the stream's ingestion errors.
    pub fn observe(&mut self, id: StreamId, observation: Observation) -> Result<()> {
        self.stream_mut(id)?.observe(observation)
    }

    /// Feeds one replay event to one stream.
    ///
    /// # Errors
    ///
    /// Unknown id, or the stream's ingestion errors.
    pub fn ingest(&mut self, id: StreamId, event: StreamEvent) -> Result<()> {
        match event {
            StreamEvent::Evolve(evo) => self.evolve(id, evo),
            StreamEvent::Observe(obs) => self.observe(id, obs),
        }
    }

    /// Number of streams whose windows are full — what the next
    /// [`SmootherPool::poll`] would flush.  Allocation-free, so serving
    /// layers can report readiness in their metrics snapshots at any
    /// frequency.
    pub fn ready_len(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| matches!(e, Some(s) if s.ready()))
            .count()
    }

    /// The execution policy batched flushes run under.
    pub fn policy(&self) -> ExecPolicy {
        self.policy
    }

    /// Ids of streams whose windows are full (what [`SmootherPool::poll`]
    /// would flush).
    pub fn ready_streams(&self) -> Vec<StreamId> {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| match e {
                Some(s) if s.ready() => Some(StreamId(i)),
                _ => None,
            })
            .collect()
    }

    /// Flushes every ready stream in one parallel batch, returning each
    /// stream's outcome individually (streams with nothing to finalize are
    /// absent).  Results are per-stream because a successful flush is
    /// irreversible — its steps are condensed out of the stream and would
    /// be lost forever if one faulty neighbour could discard the whole
    /// batch.  A stream whose flush *failed* (e.g.
    /// [`KalmanError::RankDeficient`] while its data is still
    /// underdetermined) reports the error and is left unchanged; it flushes
    /// normally once its window becomes solvable.
    ///
    /// This is the allocating convenience form; a serving loop that polls
    /// at high frequency uses [`SmootherPool::poll_into`] with a reused
    /// [`PollBatch`], which allocates nothing in steady state.
    pub fn poll(&mut self) -> Vec<(StreamId, Result<Vec<FinalizedStep>>)> {
        let mut batch = PollBatch::new();
        self.poll_into(&mut batch);
        let used = batch.used;
        batch
            .entries
            .into_iter()
            .take(used)
            .filter(|e| !matches!(&e.outcome, Ok(()) if e.steps.is_empty()))
            .map(|e| match e.outcome {
                Ok(()) => (e.id, Ok(e.steps)),
                Err(err) => (e.id, Err(err)),
            })
            .collect()
    }

    /// [`SmootherPool::poll`] into reused storage: `out`'s entries (and
    /// their finalized-step slots) are overwritten in place, so a
    /// steady-state poll — same streams ready, same window shapes —
    /// performs **zero heap allocations** end to end.
    ///
    /// Mechanics: ready streams are *moved* into their output slots (a
    /// pointer-sized shuffle, no staging vector), flushed in one parallel
    /// batch under the pool's [`ExecPolicy`], and moved back.  Per-stream errors land in the corresponding
    /// [`PollEntry`] exactly like [`SmootherPool::poll`].
    pub fn poll_into(&mut self, out: &mut PollBatch) {
        self.poll_into_where(out, |_| true);
    }

    /// [`SmootherPool::poll_into`] restricted to ready streams the
    /// predicate selects — the building block for serving layers that
    /// gate flushing on their own cadence (e.g. the canonical
    /// evolve-triggered quanta of `kalman-serve`, or priority tiers).
    /// Ready streams the predicate rejects stay buffered and untouched.
    pub fn poll_into_where(&mut self, out: &mut PollBatch, mut pred: impl FnMut(StreamId) -> bool) {
        let _span = kalman_obs::span!("stream.pool.poll");
        let policy = self.policy;
        // Stage: move each ready stream into an output slot.
        let mut count = 0;
        for (i, slot) in self.entries.iter_mut().enumerate() {
            let ready = matches!(slot, Some(s) if s.ready());
            if !ready || !pred(StreamId(i)) {
                continue;
            }
            // lint: allow(panic, "infallible: `ready` above matched Some, and nothing takes the slot in between")
            let stream = slot.take().expect("readiness checked above");
            if out.entries.len() == count {
                out.entries.push(PollEntry::empty()); // lint: allow(alloc, "grows the reused poll batch to high-water mark once; later polls reuse parked slots")
            }
            let entry = &mut out.entries[count];
            entry.id = StreamId(i);
            entry.stream = Some(stream);
            entry.outcome = Ok(());
            count += 1;
        }
        // Surplus slots from a larger previous poll stay parked (capacity
        // retained); only `used` marks this poll's extent.
        out.used = count;
        // One parallel batch: each task owns its stream and output slot.
        for_each_mut(policy, &mut out.entries[..count], |_, entry| {
            // lint: allow(panic, "infallible: the staging loop above set `stream` to Some for every entry in ..count")
            let stream = entry.stream.as_mut().expect("staged above");
            entry.outcome = stream.flush_into(&mut entry.steps).map(|_| ());
            if entry.outcome.is_err() {
                entry.steps.clear();
            }
        });
        // Return the streams to their pool slots.
        for entry in out.entries[..count].iter_mut() {
            self.entries[entry.id.0] = entry.stream.take();
        }
    }

    /// Ends one stream: removes it from the pool, finalizes its whole
    /// window, and returns the tail estimates with the finished stream's
    /// [`WindowSnapshot`] (see [`StreamingSmoother::finish`]).
    ///
    /// # Errors
    ///
    /// Unknown id, or the stream's final smoothing error (the stream is
    /// removed either way).
    pub fn finish(&mut self, id: StreamId) -> Result<(Vec<FinalizedStep>, WindowSnapshot)> {
        let stream = self
            .entries
            .get_mut(id.0)
            .and_then(|e| e.take())
            .ok_or_else(|| KalmanError::Stream(format!("no live stream with id {}", id.0)))?;
        self.live -= 1;
        stream.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StreamOptions;
    use kalman_dense::Matrix;
    use kalman_model::{events_of, generators, CovarianceSpec};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn pooled_opts() -> StreamOptions {
        StreamOptions {
            lag: 8,
            lag_policy: None,
            flush_every: 4,
            covariances: false,
            policy: ExecPolicy::Seq,
            auto_flush: true, // insert() must override this
            ..StreamOptions::default()
        }
    }

    #[test]
    fn pool_matches_standalone_streams() {
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let models: Vec<_> = (0..5)
            .map(|_| generators::paper_benchmark(&mut rng, 2, 50, true))
            .collect();

        // Standalone reference.
        let mut reference = Vec::new();
        for model in &models {
            let p = model.prior.as_ref().unwrap();
            let mut s = StreamingSmoother::with_prior(p.mean.clone(), p.cov.clone(), pooled_opts())
                .unwrap();
            let mut out = Vec::new();
            for e in events_of(model) {
                out.extend(s.ingest(e).unwrap());
            }
            let (tail, _) = s.finish().unwrap();
            out.extend(tail);
            reference.push(out);
        }

        // The same streams through a pool, polled after every round.
        let mut pool = SmootherPool::new(ExecPolicy::par_with_grain(1));
        let ids: Vec<StreamId> = models
            .iter()
            .map(|m| {
                let p = m.prior.as_ref().unwrap();
                pool.insert(
                    StreamingSmoother::with_prior(p.mean.clone(), p.cov.clone(), pooled_opts())
                        .unwrap(),
                )
            })
            .collect();
        assert_eq!(pool.len(), 5);
        // Feed whole steps per round (evolve + observations together), so
        // the pool's poll cadence sees the same fully-observed windows the
        // standalone auto-flush does.
        let mut collected: Vec<Vec<FinalizedStep>> = vec![Vec::new(); models.len()];
        let rounds = models.iter().map(|m| m.num_states()).max().unwrap();
        for si in 0..rounds {
            for (k, model) in models.iter().enumerate() {
                let Some(step) = model.steps.get(si) else {
                    continue;
                };
                if si > 0 {
                    pool.evolve(ids[k], step.evolution.clone().unwrap())
                        .unwrap();
                }
                if let Some(obs) = &step.observation {
                    pool.observe(ids[k], obs.clone()).unwrap();
                }
            }
            for (id, steps) in pool.poll() {
                let k = ids.iter().position(|x| *x == id).unwrap();
                collected[k].extend(steps.unwrap());
            }
        }
        for (k, id) in ids.iter().enumerate() {
            let (tail, ckpt) = pool.finish(*id).unwrap();
            collected[k].extend(tail);
            assert_eq!(ckpt.index, 50);
        }
        assert!(pool.is_empty());

        // Pooled and standalone streams saw identical data and flush at the
        // same fill levels, so results are identical.
        for (k, (got, want)) in collected.iter().zip(&reference).enumerate() {
            assert_eq!(got.len(), want.len(), "stream {k}");
            for (g, w) in got.iter().zip(want) {
                assert_eq!(g.index, w.index);
                let diff = g
                    .mean
                    .iter()
                    .zip(&w.mean)
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0f64, f64::max);
                assert!(diff < 1e-12, "stream {k} state {}: {diff}", g.index);
            }
        }
    }

    #[test]
    fn ids_and_errors() {
        let mut pool = SmootherPool::new(ExecPolicy::Seq);
        assert!(pool.is_empty());
        let id = pool.insert(StreamingSmoother::new(1, pooled_opts()).unwrap());
        assert!(pool.stream(id).is_some());
        assert!(!pool.stream(id).unwrap().options().auto_flush);
        let bogus = StreamId(7);
        assert!(pool.evolve(bogus, Evolution::random_walk(1)).is_err());
        assert!(pool.finish(bogus).is_err());
        pool.observe(
            id,
            Observation {
                g: Matrix::identity(1),
                o: vec![1.0],
                noise: CovarianceSpec::Identity(1),
            },
        )
        .unwrap();
        let (tail, _) = pool.finish(id).unwrap();
        assert_eq!(tail.len(), 1);
        // Slot is reused after removal.
        let id2 = pool.insert(StreamingSmoother::new(1, pooled_opts()).unwrap());
        assert_eq!(id2, id);
    }

    #[test]
    fn poll_flushes_only_ready_streams() {
        let mut pool = SmootherPool::new(ExecPolicy::Seq);
        let a = pool.insert(
            StreamingSmoother::with_prior(vec![0.0], CovarianceSpec::Identity(1), pooled_opts())
                .unwrap(),
        );
        let b = pool.insert(
            StreamingSmoother::with_prior(vec![0.0], CovarianceSpec::Identity(1), pooled_opts())
                .unwrap(),
        );
        // Fill only stream a past its window capacity (12).
        for i in 0..14u64 {
            if i > 0 {
                pool.evolve(a, Evolution::random_walk(1)).unwrap();
            }
            pool.observe(
                a,
                Observation {
                    g: Matrix::identity(1),
                    o: vec![i as f64],
                    noise: CovarianceSpec::Identity(1),
                },
            )
            .unwrap();
        }
        pool.observe(
            b,
            Observation {
                g: Matrix::identity(1),
                o: vec![0.0],
                noise: CovarianceSpec::Identity(1),
            },
        )
        .unwrap();
        assert_eq!(pool.ready_streams(), vec![a]);
        let results = pool.poll();
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].0, a);
        assert_eq!(results[0].1.as_ref().unwrap().len(), 14 - 8); // len - lag
        assert!(pool.poll().is_empty());
        let _ = b;
    }

    /// One underdetermined stream in a batch must not cost healthy streams
    /// their (irreversibly condensed) finalized steps.
    #[test]
    fn poll_reports_per_stream_errors_without_losing_results() {
        let mut pool = SmootherPool::new(ExecPolicy::Seq);
        let opts = StreamOptions {
            lag: 2,
            flush_every: 2,
            covariances: false,
            policy: ExecPolicy::Seq,
            auto_flush: false,
            lag_policy: None,
            ..StreamOptions::default()
        };
        let healthy = pool.insert(
            StreamingSmoother::with_prior(vec![0.0], CovarianceSpec::Identity(1), opts).unwrap(),
        );
        // No prior, never observed: its window cannot be solved yet.
        let starved = pool.insert(StreamingSmoother::new(1, opts).unwrap());
        for i in 0..4u64 {
            if i > 0 {
                pool.evolve(healthy, Evolution::random_walk(1)).unwrap();
                pool.evolve(starved, Evolution::random_walk(1)).unwrap();
            }
            pool.observe(
                healthy,
                Observation {
                    g: Matrix::identity(1),
                    o: vec![i as f64],
                    noise: CovarianceSpec::Identity(1),
                },
            )
            .unwrap();
        }
        let mut results = pool.poll();
        results.sort_by_key(|(id, _)| id.0);
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].0, healthy);
        let healthy_steps = results[0].1.as_ref().unwrap();
        assert_eq!(healthy_steps.len(), 2); // len 4 - lag 2
        assert_eq!(results[1].0, starved);
        assert!(matches!(
            results[1].1,
            Err(KalmanError::RankDeficient { .. })
        ));
        // The starved stream is intact and recovers once observed.
        pool.observe(
            starved,
            Observation {
                g: Matrix::identity(1),
                o: vec![0.5],
                noise: CovarianceSpec::Identity(1),
            },
        )
        .unwrap();
        let recovered = pool.poll();
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].0, starved);
        assert_eq!(recovered[0].1.as_ref().unwrap().len(), 2);
    }
}
