//! The streaming fixed-lag smoother.

use crate::ring::{Estimates, Ring};
use crate::{FinalizedStep, StreamOptions, WindowSnapshot, WindowView};
use kalman_model::{
    Evolution, InfoHead, KalmanError, LinearStep, Observation, Prior, Result, Smoothed,
    StreamEvent, StreamEventRef,
};

/// An online smoother over one stream of steps.
///
/// The smoother holds a bounded buffer of recent steps plus an
/// [`InfoHead`] condensing everything older, and keeps the window's
/// block-bidiagonal `R` factor between flushes.  Ingestion is cheap
/// (validation and buffering only).  The forward elimination of a step
/// that is no longer the newest runs at the first of two moments: a call
/// to [`StreamingSmoother::eliminate_pending`] (a serving drain makes one
/// for every stream it evolved), or the next flush — when the window fills
/// ([`StreamOptions::auto_flush`]) or when [`StreamingSmoother::flush`] is
/// called (e.g. by a [`crate::SmootherPool`]).  A flush is an incremental
/// Paige–Saunders sweep: the forward elimination runs only over the steps
/// still pending (all but the newest, which can still be observed, and
/// none that an earlier call eliminated), so every step is whitened and
/// eliminated exactly once in its life; back substitution through the
/// kept `R` blocks gives the means, the bidiagonal SelInv recursion the
/// covariances (from terms of each block that are computed once, with it,
/// and kept beside it), and forgetting a finalized step drops its block —
/// there is no second factorization.  The sweep is sequential;
/// [`StreamOptions::policy`] is not consulted, and parallelism lives
/// *across* streams in [`crate::SmootherPool`].
///
/// In steady state — auto-flush cadence or a fixed manual cadence — a
/// flush performs **zero heap allocations**: every container keeps its
/// capacity and all matrices cycle through the `kalman-dense` workspace
/// pool.  Verified by the `alloc_steady_state` integration test
/// (standalone, pooled, and saturated-sharded cases).
///
/// Invariants maintained between calls:
///
/// * the buffer is never empty, `buffer[0]` carries no evolution (its
///   incoming evolution, if any, lives in the head), and every later step
///   carries exactly one;
/// * the head (the ring's prior on the base) constrains `buffer[0]`'s
///   state and summarizes every forgotten step *plus* the evolution into
///   `buffer[0]`, but not `buffer[0]`'s own observations;
/// * the ring holds at most `buffer.len() - 1` eliminated steps: the newest
///   step is never eliminated;
/// * `buffer.len() ≤ current_lag + flush_every` whenever auto-flush is on.
#[derive(Debug, Clone)]
pub struct StreamingSmoother {
    opts: StreamOptions,
    /// The head and the `R` blocks of the eliminated prefix of `buffer`.
    ring: Ring,
    buffer: Vec<LinearStep>,
    /// Global index of `buffer[0]`.
    base_index: u64,
    /// `buffer[0]` was already emitted (it is the final state of a finished
    /// stream this one continues) and must not be emitted again.
    base_emitted: bool,
    /// Estimates of the latest window smooth.
    estimates: Estimates,
}

/// The largest state dimension a stream accepts.  A dimension can enter a
/// stream as a bare number with no data behind it — the column count of a
/// zero-row snapshot head or of a zero-row `H` — and the first flush then
/// sizes `n × n` blocks by it, an allocation that aborts the process rather
/// than failing.  2¹⁶ is far above the paper's largest state (n = 500) and
/// one such block is already 32 GiB.
pub const MAX_STATE_DIM: usize = 1 << 16;

/// Refuses a state dimension above [`MAX_STATE_DIM`] with a typed
/// [`KalmanError::Stream`].
pub(crate) fn check_state_dim(n: usize) -> Result<()> {
    if n > MAX_STATE_DIM {
        return Err(KalmanError::Stream(format!(
            "state dimension {n} exceeds MAX_STATE_DIM = {MAX_STATE_DIM}"
        )));
    }
    Ok(())
}

fn check_options(opts: &StreamOptions) -> Result<()> {
    if opts.flush_every == 0 {
        return Err(KalmanError::Stream("flush_every must be at least 1".into()));
    }
    if opts.effective_lag() == 0 {
        return Err(KalmanError::Stream("lag must be at least 1".into()));
    }
    Ok(())
}

impl StreamingSmoother {
    /// A fresh stream with no prior on its initial state (dimension `n`):
    /// the snapshot at index 0 with an empty head and nothing buffered.
    /// Estimates become available once observations determine the chain.
    ///
    /// # Errors
    ///
    /// [`KalmanError::Stream`] on degenerate options, `n == 0` or
    /// `n > MAX_STATE_DIM`.
    pub fn new(n: usize, opts: StreamOptions) -> Result<Self> {
        let fresh = WindowSnapshot {
            index: 0,
            head: InfoHead::empty(n),
            base_emitted: false,
            events: Vec::new(),
        };
        StreamingSmoother::restore(fresh, opts)
    }

    /// A fresh stream whose initial state has a Gaussian prior.
    ///
    /// # Errors
    ///
    /// [`KalmanError::Stream`] on degenerate options or a mean longer than
    /// [`MAX_STATE_DIM`]; otherwise [`Prior::validate`]'s errors, the ones
    /// a batch model's prior gets: [`KalmanError::InvalidModel`] on a
    /// dimension mismatch or a NaN/∞ in the mean, and
    /// [`KalmanError::NotPositiveDefinite`] on a covariance that is not SPD
    /// (NaN/∞ entries included).
    pub fn with_prior(
        mean: Vec<f64>,
        cov: kalman_model::CovarianceSpec,
        opts: StreamOptions,
    ) -> Result<Self> {
        check_options(&opts)?;
        if mean.is_empty() {
            return Err(KalmanError::Stream(
                "state dimension must be positive".into(),
            ));
        }
        check_state_dim(mean.len())?;
        let prior = Prior { mean, cov };
        prior.validate()?;
        let fresh = WindowSnapshot {
            index: 0,
            head: InfoHead::from_prior(&prior)?,
            base_emitted: false,
            events: Vec::new(),
        };
        StreamingSmoother::restore(fresh, opts)
    }

    /// Captures the stream's complete live state *without* disturbing it:
    /// the condensed head plus the buffered window as replayable events.
    ///
    /// Unlike [`StreamingSmoother::finish`] — which finalizes the window
    /// early, so a continued stream condensed those steps with less
    /// hindsight than an uninterrupted one — a snapshot is transparent:
    /// [`StreamingSmoother::restore`] yields a smoother whose every
    /// future output is **bitwise identical** to this one's.  This is the
    /// crash-recovery primitive for cross-process serving.
    pub fn snapshot(&self) -> Result<WindowSnapshot> {
        let window = self.window()?;
        Ok(WindowSnapshot {
            index: window.index,
            head: window.head.clone(),
            base_emitted: window.base_emitted,
            events: window.events().map(StreamEventRef::to_event).collect(),
        })
    }

    /// The stream's state, borrowed: what [`StreamingSmoother::snapshot`]
    /// copies, with the buffered window read in place as
    /// [`WindowView::events`].
    ///
    /// # Errors
    ///
    /// [`KalmanError::Stream`] if a buffered step after the base lacks its
    /// evolution (a broken invariant; `snapshot` refuses the same window).
    pub fn window(&self) -> Result<WindowView<'_>> {
        if let Some(j) = (self.buffer.iter().skip(1)).position(|step| step.evolution.is_none()) {
            return Err(KalmanError::Stream(format!(
                "buffered step {} is missing its evolution",
                self.base_index + 1 + j as u64
            )));
        }
        Ok(WindowView {
            index: self.base_index,
            head: self.ring.head(),
            base_emitted: self.base_emitted,
            steps: &self.buffer,
        })
    }

    /// Rebuilds a stream from a [`WindowSnapshot`], reproducing the
    /// snapshotted stream exactly: every output the restored stream emits
    /// from here on is bitwise identical to what the original would have
    /// emitted.  `opts` should equal the original's options — differing
    /// options change future outputs, though the restore itself still
    /// succeeds when the window fits.  A snapshot from
    /// [`StreamingSmoother::finish`] continues the finished stream: its
    /// final state is not re-emitted, and the first
    /// [`StreamingSmoother::evolve`] appends state `snapshot.index + 1`.
    ///
    /// # Errors
    ///
    /// [`KalmanError::Stream`] on degenerate options or a head that fails
    /// [`WindowSnapshot::validate`]; [`KalmanError::InvalidModel`] when the
    /// replayed events are inconsistent (possible only for snapshots not
    /// produced by [`StreamingSmoother::snapshot`]).
    pub fn restore(snapshot: WindowSnapshot, opts: StreamOptions) -> Result<Self> {
        check_options(&opts)?;
        snapshot.validate()?;
        // Replay with auto-flush off: the window must be rebuilt as-is,
        // not re-finalized (the original already emitted its prefix).
        let mut stream = StreamingSmoother {
            opts: StreamOptions {
                auto_flush: false,
                ..opts
            },
            buffer: vec![LinearStep::initial(snapshot.state_dim())],
            ring: Ring::new(snapshot.head, opts.covariances),
            base_index: snapshot.index,
            base_emitted: snapshot.base_emitted,
            estimates: Estimates::default(),
        };
        for event in snapshot.events {
            stream.ingest(event)?;
        }
        stream.opts.auto_flush = opts.auto_flush;
        Ok(stream)
    }

    /// The stream's options.
    pub fn options(&self) -> &StreamOptions {
        &self.opts
    }

    /// Turns automatic flushing on evolve on or off (pools turn it off).
    pub fn set_auto_flush(&mut self, auto_flush: bool) {
        self.opts.auto_flush = auto_flush;
    }

    /// Number of steps currently buffered (bounded by
    /// [`StreamOptions::window_capacity`] under auto-flush).
    pub fn buffered_len(&self) -> usize {
        self.buffer.len()
    }

    /// Number of buffered steps whose forward elimination is done (at most
    /// `buffered_len() - 1`: the newest step is never eliminated).
    pub fn eliminated_len(&self) -> usize {
        self.ring.len()
    }

    /// Index the next [`StreamingSmoother::evolve`] will assign.
    pub fn next_index(&self) -> u64 {
        self.base_index + self.buffer.len() as u64
    }

    /// Dimension of the newest state.
    pub fn state_dim(&self) -> usize {
        // lint: allow(panic, "infallible: the constructor seeds one step and flush never drains below one")
        self.buffer.last().expect("buffer is never empty").state_dim
    }

    /// `true` when a [`StreamingSmoother::flush`] would finalize a full
    /// batch of `flush_every` steps.
    pub fn ready(&self) -> bool {
        self.buffer.len() >= self.opts.window_capacity()
    }

    /// The finalization lag in effect ([`StreamOptions::effective_lag`]).
    pub fn current_lag(&self) -> usize {
        self.opts.effective_lag()
    }

    /// How many times the storage of the window's `R` blocks was (re)sized:
    /// a flush counts when its window is longer than any this stream
    /// flushed before, and the first [`StreamingSmoother::eliminate_pending`]
    /// call (a serving drain's) counts once, sizing the storage for a full
    /// window.  A stream on a steady cadence reports `1` no matter how many
    /// flushes ran; a growing count means ever longer windows keep
    /// appearing.  (The name dates from when each
    /// window shape had an odd-even plan built for it.)
    pub fn plan_builds(&self) -> u64 {
        self.ring.resizes()
    }

    /// Appends a new state evolving from the newest one.  Returns the steps
    /// finalized by an automatic flush (empty unless the window was full
    /// and [`StreamOptions::auto_flush`] is set).
    ///
    /// # Errors
    ///
    /// [`Evolution::validate`]'s errors, the ones a batch model's step
    /// gets: [`KalmanError::InvalidModel`] on dimension mismatches against
    /// the newest state or a NaN/∞ entry in `F`, `H` or `c`, and
    /// [`KalmanError::NotPositiveDefinite`] on the noise.  Also
    /// [`KalmanError::Stream`] on a new state dimension above
    /// [`MAX_STATE_DIM`] (either way the stream is left unchanged), plus any
    /// flush error (see [`StreamingSmoother::flush`]).
    pub fn evolve(&mut self, evolution: Evolution) -> Result<Vec<FinalizedStep>> {
        let index = self.next_index() as usize;
        check_state_dim(evolution.validate(self.state_dim(), index)?)?;
        let finalized = if self.opts.auto_flush && self.ready() {
            self.flush()?
        } else {
            Vec::new()
        };
        self.buffer.push(LinearStep::evolving(evolution));
        Ok(finalized)
    }

    /// Attaches an observation to the newest state.  Several observations
    /// of the same state stack (their noises combine block-diagonally).
    ///
    /// # Errors
    ///
    /// [`Observation::validate`]'s errors, the ones a batch model's step
    /// gets: [`KalmanError::InvalidModel`] on dimension mismatches or a
    /// NaN/∞ entry in `G` or `o`, and [`KalmanError::NotPositiveDefinite`]
    /// on the noise; the stream is left unchanged.
    pub fn observe(&mut self, observation: Observation) -> Result<()> {
        let index = (self.base_index + (self.buffer.len() - 1) as u64) as usize;
        // lint: allow(panic, "infallible: the constructor seeds one step and flush never drains below one")
        let step = self.buffer.last_mut().expect("buffer is never empty");
        observation.validate(step.state_dim, index)?;
        step.observation = Some(match step.observation.take() {
            None => observation,
            Some(existing) => Observation::stacked(&existing, &observation),
        });
        Ok(())
    }

    /// Feeds one [`StreamEvent`] (the replay bridge from batch models).
    ///
    /// # Errors
    ///
    /// As [`StreamingSmoother::evolve`] / [`StreamingSmoother::observe`].
    pub fn ingest(&mut self, event: StreamEvent) -> Result<Vec<FinalizedStep>> {
        match event {
            StreamEvent::Evolve(evo) => self.evolve(evo),
            StreamEvent::Observe(obs) => {
                self.observe(obs)?;
                Ok(Vec::new())
            }
        }
    }

    /// Rolls back the newest state (and its observations) — for ingestion
    /// pipelines that discover late that a step was malformed.  Returns the
    /// dropped step.
    ///
    /// # Errors
    ///
    /// [`KalmanError::Stream`] when only the window's base step remains
    /// (finalized history cannot be rolled back).
    pub fn drop_last(&mut self) -> Result<LinearStep> {
        if self.buffer.len() <= 1 {
            return Err(KalmanError::Stream(
                "cannot drop the window's base step: older data is already condensed".into(),
            ));
        }
        // lint: allow(panic, "infallible: the len > 1 guard above means pop() is Some")
        let dropped = self.buffer.pop().expect("length checked");
        // The step before it may already be eliminated through the dropped
        // step's evolution: undo that, so it can evolve and be observed anew.
        self.ring.rollback_to(self.buffer.len() - 1);
        Ok(dropped)
    }

    /// Runs the forward elimination of every buffered step that is no
    /// longer the newest and not eliminated yet — the work the next flush
    /// would otherwise start with — and nothing else.  It changes no
    /// estimate: each step runs the same forward step on the same operands
    /// as it would inside the flush, so every later output is bitwise what
    /// it would have been.  Called between flushes, it moves that work out
    /// of the flush, to a moment when the steps' data are still warm in
    /// cache; a serving drain calls it (through
    /// [`crate::SmootherPool::eliminate_pending`]) for every stream it
    /// evolved.
    ///
    /// It reports no error.  A step it cannot whiten stays pending, with
    /// every step after it, and the next flush, which reruns it, reports
    /// the same typed error at the same index as it would have without this
    /// call.  A step the data do not determine yet is eliminated as it
    /// would be in a flush, and the flush reports it rank deficient.
    pub fn eliminate_pending(&mut self) {
        // Called step by step while the first window fills, the sweep would
        // grow the slot storage one slot at a time: size it for the full
        // window, as that window's first flush would.
        // lint: allow(alloc, "sizes the slot storage once, for a full window; later calls find it sized")
        self.ring.reserve(self.opts.window_capacity() - 1);
        // An error leaves the failing step pending for the flush to report.
        let _ = self.ring.eliminate_pending(&self.buffer, self.base_index);
    }

    /// `true` while a buffered step other than the newest awaits its
    /// forward elimination.
    pub(crate) fn has_pending(&self) -> bool {
        self.ring.len() + 1 < self.buffer.len()
    }

    /// Smooths the current window *without* finalizing anything: estimates
    /// for every buffered step, newest included (a real-time read of the
    /// stream's present).  Index `i` of the result is global step
    /// `next_index() - buffered_len() + i`.
    ///
    /// # Errors
    ///
    /// [`KalmanError::RankDeficient`] while the data seen so far does not
    /// determine the window (e.g. a no-prior stream before its first
    /// observations), plus covariance failures.
    pub fn smoothed(&self) -> Result<Smoothed> {
        // The sweep eliminates in place; a read-only smooth works on a copy.
        let mut ring = self.ring.clone();
        let mut estimates = Estimates::default();
        ring.smooth(
            &self.buffer,
            self.base_index,
            self.buffer.len(),
            &mut estimates,
        )?;
        let Estimates {
            mut means,
            mut covs,
            len,
            ..
        } = estimates;
        means.truncate(len);
        covs.truncate(len);
        Ok(Smoothed {
            means,
            covariances: self.opts.covariances.then_some(covs),
        })
    }

    /// Smooths the window and finalizes every step more than `lag` behind
    /// the newest, forgetting their `R` blocks: the prior stored with the
    /// oldest remaining step becomes the head.  No-op (empty result) when
    /// nothing is finalizable.  The smooth first runs the forward steps
    /// still pending (all of them, unless
    /// [`StreamingSmoother::eliminate_pending`] ran since the window last
    /// grew), then the downward sweep.
    ///
    /// # Errors
    ///
    /// [`KalmanError::RankDeficient`] (naming the step's global index) when
    /// the data seen so far does not determine the window — enlarge the
    /// lag, provide a prior, or observe more states.  On error the stream
    /// emits nothing and every later estimate is what it would have been:
    /// the steps the failed flush eliminated stay eliminated, which is an
    /// orthogonal change of basis of the same least-squares problem.
    pub fn flush(&mut self) -> Result<Vec<FinalizedStep>> {
        let mut out = Vec::new();
        self.flush_into(&mut out)?;
        Ok(out)
    }

    /// [`StreamingSmoother::flush`] into a reused output buffer: `out` is
    /// overwritten in place (existing [`FinalizedStep`] slots keep their
    /// mean/covariance storage) and truncated to the number of finalized
    /// steps, which is returned.
    ///
    /// In steady state — auto-flush cadence or a fixed manual cadence — a
    /// flush performs **zero heap allocations** after the first few warmup
    /// flushes: every container involved retains capacity and all matrices
    /// cycle through the `kalman-dense` workspace pool.
    ///
    /// # Errors
    ///
    /// As [`StreamingSmoother::flush`]; on error `out`'s contents are
    /// unspecified.
    pub fn flush_into(&mut self, out: &mut Vec<FinalizedStep>) -> Result<usize> {
        let count = self.buffer.len().saturating_sub(self.opts.effective_lag());
        if count == 0 {
            out.truncate(0);
            return Ok(0);
        }
        let _span = kalman_obs::span!("stream.flush");
        self.smooth_window(count)?;
        let emitted = self.emit_into(count, out);
        self.ring.forget(count);
        self.buffer.drain(0..count);
        self.buffer[0].evolution = None;
        self.base_index += count as u64;
        self.base_emitted = false;
        Ok(emitted)
    }

    /// Ends the stream: smooths the window once more, finalizes **all**
    /// buffered steps (the lag does not apply to a closing stream), and
    /// condenses the stream into a [`WindowSnapshot`] with nothing
    /// buffered: the head on the final state, its own observations
    /// included, already emitted.  [`StreamingSmoother::restore`]
    /// continues it.
    ///
    /// # Errors
    ///
    /// As [`StreamingSmoother::flush`].
    pub fn finish(mut self) -> Result<(Vec<FinalizedStep>, WindowSnapshot)> {
        self.smooth_window(self.buffer.len())?;
        let head = self.ring.newest().clone();
        let mut finalized = Vec::new();
        self.emit_into(self.buffer.len(), &mut finalized);
        Ok((
            finalized,
            WindowSnapshot {
                index: self.base_index + (self.buffer.len() - 1) as u64,
                head,
                base_emitted: true,
                events: Vec::new(),
            },
        ))
    }

    /// Smooths the window in place (see `Ring::smooth`), leaving the
    /// estimates in `self.estimates`: every mean, and the covariances of
    /// the first `keep` buffered steps — the ones about to be emitted.
    fn smooth_window(&mut self, keep: usize) -> Result<()> {
        self.ring
            .smooth(&self.buffer, self.base_index, keep, &mut self.estimates)
    }

    /// Writes estimates for the first `count` buffered steps into `out`
    /// (reusing its slots; truncated to the emitted count), skipping a
    /// base step that was already emitted.  Reads the estimates
    /// `smooth_window` left behind.
    fn emit_into(&self, count: usize, out: &mut Vec<FinalizedStep>) -> usize {
        let mut emitted = 0;
        for j in 0..count {
            if j == 0 && self.base_emitted {
                continue;
            }
            let index = self.base_index + j as u64;
            let mean = &self.estimates.means[j];
            let cov = if self.opts.covariances {
                Some(&self.estimates.covs[j])
            } else {
                None
            };
            if let Some(slot) = out.get_mut(emitted) {
                slot.index = index;
                slot.mean.clear();
                slot.mean.extend_from_slice(mean);
                match (&mut slot.covariance, cov) {
                    (Some(dst), Some(src)) => dst.clone_from(src),
                    (dst, Some(src)) => *dst = Some(src.clone()), // lint: allow(alloc, "first covariance for a reused slot; later emits clone_from into it in place")
                    (dst, None) => *dst = None,
                }
            } else {
                // lint: allow(alloc, "grows the reused output to the emit high-water mark once; later emits hit the slot-reuse branch above")
                out.push(FinalizedStep {
                    index,
                    mean: mean.clone(), // lint: allow(alloc, "first fill of a new output slot; reused thereafter")
                    covariance: cov.cloned(),
                });
            }
            emitted += 1;
        }
        out.truncate(emitted);
        emitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kalman_dense::Matrix;
    use kalman_model::{events_of, generators, CovarianceSpec};
    use kalman_odd_even::{odd_even_smooth, OddEvenOptions};
    use kalman_par::ExecPolicy;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn identity_obs(n: usize, o: Vec<f64>) -> Observation {
        Observation {
            g: Matrix::identity(n),
            o,
            noise: CovarianceSpec::Identity(n),
        }
    }

    /// Feeds a batch model through streaming ingestion and returns every
    /// finalized step (flushes + finish).
    fn stream_model(
        model: &kalman_model::LinearModel,
        opts: StreamOptions,
    ) -> (Vec<FinalizedStep>, WindowSnapshot) {
        let n0 = model.steps[0].state_dim;
        let mut stream = match &model.prior {
            Some(p) => StreamingSmoother::with_prior(p.mean.clone(), p.cov.clone(), opts).unwrap(),
            None => StreamingSmoother::new(n0, opts).unwrap(),
        };
        let mut finalized = Vec::new();
        let mut max_buffered = 0;
        for event in events_of(model) {
            finalized.extend(stream.ingest(event).unwrap());
            max_buffered = max_buffered.max(stream.buffered_len());
        }
        assert!(
            max_buffered <= opts.window_capacity() + 1,
            "window overflowed: {max_buffered}"
        );
        let (tail, ckpt) = stream.finish().unwrap();
        finalized.extend(tail);
        (finalized, ckpt)
    }

    #[test]
    fn finalizes_every_step_exactly_once() {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let model = generators::paper_benchmark(&mut rng, 2, 120, true);
        let opts = StreamOptions {
            lag: 10,
            flush_every: 7,
            covariances: false,
            ..StreamOptions::default()
        };
        let (finalized, ckpt) = stream_model(&model, opts);
        assert_eq!(finalized.len(), 121);
        for (i, f) in finalized.iter().enumerate() {
            assert_eq!(f.index, i as u64);
        }
        assert_eq!(ckpt.index, 120);
    }

    #[test]
    fn matches_batch_exactly_when_lag_covers_stream() {
        // With the lag beyond the stream length, everything finalizes at
        // finish() and must match the batch solution to rounding — through
        // the general bodies (n = 3), and through the fixed-size forward
        // step and back half (n = 4 and 8; without a prior the head is
        // short, and the general bodies run, until it fills up).
        for (n, prior) in [(3, false), (4, true), (4, false), (8, true), (8, false)] {
            let mut rng = ChaCha8Rng::seed_from_u64(22);
            let model = generators::paper_benchmark(&mut rng, n, 40, prior);
            let opts = StreamOptions {
                lag: 64,
                flush_every: 8,
                covariances: true,
                ..StreamOptions::default()
            };
            let (finalized, _) = stream_model(&model, opts);
            let batch = odd_even_smooth(&model, OddEvenOptions::default()).unwrap();
            for f in &finalized {
                let i = f.index as usize;
                let diff = f
                    .mean
                    .iter()
                    .zip(batch.mean(i))
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0f64, f64::max);
                assert!(diff < 1e-9, "n={n} state {i}: diff {diff}");
                let cdiff = f
                    .covariance
                    .as_ref()
                    .unwrap()
                    .max_abs_diff(batch.covariance(i).unwrap());
                assert!(cdiff < 1e-9, "n={n} state {i}: cov diff {cdiff}");
            }
        }
    }

    #[test]
    fn memory_stays_bounded_over_long_streams() {
        let opts = StreamOptions {
            lag: 4,
            flush_every: 4,
            covariances: false,
            ..StreamOptions::default()
        };
        let mut stream =
            StreamingSmoother::with_prior(vec![0.0], CovarianceSpec::Identity(1), opts).unwrap();
        let mut total = 0;
        for i in 0..500 {
            if i > 0 {
                total += stream.evolve(Evolution::random_walk(1)).unwrap().len();
            }
            stream.observe(identity_obs(1, vec![i as f64])).unwrap();
            assert!(stream.buffered_len() <= opts.window_capacity());
        }
        let (tail, _) = stream.finish().unwrap();
        total += tail.len();
        assert_eq!(total, 500);
    }

    #[test]
    fn missing_observations_and_multi_observe_stack() {
        let opts = StreamOptions {
            lag: 6,
            flush_every: 2,
            covariances: false,
            ..StreamOptions::default()
        };
        let mut stream =
            StreamingSmoother::with_prior(vec![0.0, 0.0], CovarianceSpec::Identity(2), opts)
                .unwrap();
        let mut finalized = Vec::new();
        for i in 0..30u64 {
            if i > 0 {
                finalized.extend(stream.evolve(Evolution::random_walk(2)).unwrap());
            }
            if i % 3 == 0 {
                // Two sensors for the same step.
                stream
                    .observe(identity_obs(2, vec![i as f64, 0.0]))
                    .unwrap();
                stream
                    .observe(Observation {
                        g: Matrix::from_rows(&[&[1.0, 1.0]]),
                        o: vec![i as f64],
                        noise: CovarianceSpec::ScaledIdentity(1, 2.0),
                    })
                    .unwrap();
            }
        }
        let (tail, _) = stream.finish().unwrap();
        finalized.extend(tail);
        assert_eq!(finalized.len(), 30);
    }

    #[test]
    fn drop_last_rolls_back_ingestion() {
        let opts = StreamOptions::with_lag(4);
        let mut stream =
            StreamingSmoother::with_prior(vec![0.0], CovarianceSpec::Identity(1), opts).unwrap();
        stream.observe(identity_obs(1, vec![0.0])).unwrap();
        // A bogus step arrives…
        stream.evolve(Evolution::random_walk(1)).unwrap();
        stream.observe(identity_obs(1, vec![999.0])).unwrap();
        // …and is rolled back and replaced.
        let dropped = stream.drop_last().unwrap();
        assert_eq!(dropped.observation.unwrap().o, vec![999.0]);
        stream.evolve(Evolution::random_walk(1)).unwrap();
        stream.observe(identity_obs(1, vec![1.0])).unwrap();
        assert_eq!(stream.next_index(), 2);
        let (finalized, _) = stream.finish().unwrap();
        assert_eq!(finalized.len(), 2);
        assert!((finalized[1].mean[0] - 1.0).abs() < 1.0);
        // The base step itself cannot be dropped.
        let mut fresh = StreamingSmoother::new(1, StreamOptions::default()).unwrap();
        assert!(matches!(fresh.drop_last(), Err(KalmanError::Stream(_))));
    }

    #[test]
    fn checkpoint_resume_continues_exactly() {
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let model = generators::paper_benchmark(&mut rng, 2, 60, true);
        let opts = StreamOptions {
            lag: 16,
            flush_every: 4,
            covariances: false,
            ..StreamOptions::default()
        };

        // Uninterrupted reference.
        let (reference, _) = stream_model(&model, opts);

        // Interrupted at step 30: finish, then restore and replay the rest.
        let p = model.prior.as_ref().unwrap();
        let mut first = StreamingSmoother::with_prior(p.mean.clone(), p.cov.clone(), opts).unwrap();
        for (i, step) in model.steps.iter().enumerate().take(31) {
            if i > 0 {
                first.evolve(step.evolution.clone().unwrap()).unwrap();
            }
            if let Some(obs) = &step.observation {
                first.observe(obs.clone()).unwrap();
            }
        }
        let (_, ckpt) = first.finish().unwrap();
        assert_eq!(ckpt.index, 30);
        assert!(ckpt.base_emitted && ckpt.events.is_empty());

        let mut second = StreamingSmoother::restore(ckpt, opts).unwrap();
        let mut resumed = Vec::new();
        for step in model.steps.iter().skip(31) {
            resumed.extend(second.evolve(step.evolution.clone().unwrap()).unwrap());
            if let Some(obs) = &step.observation {
                second.observe(obs.clone()).unwrap();
            }
        }
        let (tail, _) = second.finish().unwrap();
        resumed.extend(tail);

        // States 31.. must match the uninterrupted stream.  The resumed
        // stream condensed steps ≤ 30 with shorter hindsight (data up to 30
        // only), so allow the geometric tail, not exact equality.
        assert_eq!(resumed.first().unwrap().index, 31);
        for f in &resumed {
            let r = &reference[f.index as usize];
            assert_eq!(r.index, f.index);
            let diff = f
                .mean
                .iter()
                .zip(&r.mean)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
            // The two streams flush on different phases, so hindsight
            // differs by up to flush_every steps; that influence decays
            // geometrically through the ≥ lag-step gap (≈ 0.38^16 here).
            assert!(diff < 1e-5, "state {}: diff {diff}", f.index);
        }
    }

    /// The second observation some steps of the snapshot test receive.
    fn second_sensor(i: usize) -> Option<Observation> {
        (i % 7 == 3).then(|| Observation {
            g: Matrix::from_rows(&[&[1.0, -1.0]]),
            o: vec![0.1 * i as f64],
            noise: CovarianceSpec::ScaledIdentity(1, 2.0),
        })
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|f| f.to_bits()).collect()
    }

    /// A snapshot taken mid-stream must be transparent: the restored
    /// stream's future outputs are bitwise identical to the original's —
    /// the property crash recovery is built on.  The restored stream
    /// re-eliminates the whole buffered window at its next flush where the
    /// original had eliminated most of it already, so this also pins that
    /// the kept `R` blocks are a pure function of the head and the raw
    /// steps.  Cut at *every* index, so snapshots land right after a flush,
    /// mid-window, and on steps observed twice.
    #[test]
    fn snapshot_restore_is_bitwise_transparent() {
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let model = generators::paper_benchmark(&mut rng, 2, 80, true);
        let opts = StreamOptions {
            lag: 9,
            flush_every: 4,
            covariances: true,
            ..StreamOptions::default()
        };
        let feed = |stream: &mut StreamingSmoother, i: usize, out: &mut Vec<FinalizedStep>| {
            let step = &model.steps[i];
            if i > 0 {
                out.extend(stream.evolve(step.evolution.clone().unwrap()).unwrap());
            }
            stream.observe(step.observation.clone().unwrap()).unwrap();
            if let Some(obs) = second_sensor(i) {
                stream.observe(obs).unwrap();
            }
        };
        for cut in 0..80usize {
            let p = model.prior.as_ref().unwrap();
            let mut original =
                StreamingSmoother::with_prior(p.mean.clone(), p.cov.clone(), opts).unwrap();
            let mut before = Vec::new();
            for i in 0..=cut {
                feed(&mut original, i, &mut before);
            }

            let snap = original.snapshot().unwrap();
            let mut restored = StreamingSmoother::restore(snap, opts).unwrap();
            assert_eq!(restored.next_index(), original.next_index());
            assert_eq!(restored.buffered_len(), original.buffered_len());
            assert_eq!(restored.eliminated_len(), 0);

            // Drive both over the remaining steps and demand bitwise
            // equality of every finalized estimate.
            let mut a = Vec::new();
            let mut b = Vec::new();
            for i in cut + 1..=80 {
                feed(&mut original, i, &mut a);
                feed(&mut restored, i, &mut b);
            }
            let (ta, _) = original.finish().unwrap();
            let (tb, _) = restored.finish().unwrap();
            a.extend(ta);
            b.extend(tb);
            assert_eq!(before.len() + a.len(), 81, "cut {cut}");
            assert_eq!(a.len(), b.len(), "cut {cut}");
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.index, y.index, "cut {cut}");
                assert_eq!(bits(&x.mean), bits(&y.mean), "cut {cut} state {}", x.index);
                match (&x.covariance, &y.covariance) {
                    (Some(cx), Some(cy)) => {
                        assert_eq!(bits(cx.as_slice()), bits(cy.as_slice()), "cut {cut}");
                    }
                    (None, None) => {}
                    _ => panic!("cut {cut}: covariance presence diverged"),
                }
            }
        }
    }

    /// `drop_last` right after a flush rolls back a step that flush already
    /// eliminated (through the dropped step's evolution).  Everything the
    /// stream finalizes from then on must be bitwise what a stream that
    /// never saw the dropped step finalizes: priors depend on the past
    /// only, and the re-ingested step re-eliminates its predecessor.
    #[test]
    fn drop_last_after_flush_rolls_back_an_eliminated_step() {
        let mut rng = ChaCha8Rng::seed_from_u64(32);
        let model = generators::paper_benchmark(&mut rng, 2, 20, true);
        let opts = StreamOptions {
            lag: 4,
            flush_every: 3,
            covariances: true,
            auto_flush: false,
            ..StreamOptions::default()
        };
        let p = model.prior.as_ref().unwrap();
        let new_stream =
            || StreamingSmoother::with_prior(p.mean.clone(), p.cov.clone(), opts).unwrap();
        let feed = |stream: &mut StreamingSmoother, range: std::ops::RangeInclusive<usize>| {
            for i in range {
                let step = &model.steps[i];
                if i > 0 {
                    stream.evolve(step.evolution.clone().unwrap()).unwrap();
                }
                stream.observe(step.observation.clone().unwrap()).unwrap();
            }
        };

        let mut clean = new_stream();
        feed(&mut clean, 0..=20);
        let mut want = clean.flush().unwrap();
        want.extend(clean.finish().unwrap().0);

        let mut rolled = new_stream();
        feed(&mut rolled, 0..=12);
        // A bogus step 13 arrives and a flush runs before anyone notices.
        let mut bogus = Evolution::random_walk(2);
        bogus.c = vec![50.0, -50.0];
        rolled.evolve(bogus).unwrap();
        rolled.observe(identity_obs(2, vec![99.0, 99.0])).unwrap();
        let tainted = rolled.flush().unwrap();
        assert_eq!(tainted.last().unwrap().index, 9);
        assert_eq!(rolled.eliminated_len(), rolled.buffered_len() - 1);
        rolled.drop_last().unwrap();
        assert_eq!(
            rolled.eliminated_len(),
            rolled.buffered_len() - 1,
            "step 12 is the newest again and must not stay eliminated"
        );
        feed(&mut rolled, 13..=20);
        let mut got = rolled.flush().unwrap();
        got.extend(rolled.finish().unwrap().0);

        assert_eq!(got.first().unwrap().index, 10);
        assert_eq!(got.last().unwrap().index, 20);
        for f in &got {
            let w = &want[f.index as usize];
            assert_eq!(w.index, f.index);
            assert_eq!(bits(&w.mean), bits(&f.mean), "state {}", f.index);
            assert_eq!(
                bits(w.covariance.as_ref().unwrap().as_slice()),
                bits(f.covariance.as_ref().unwrap().as_slice()),
                "state {}",
                f.index
            );
        }
    }

    #[test]
    fn no_prior_stream_is_underdetermined_until_observed() {
        let opts = StreamOptions::with_lag(4);
        let mut stream = StreamingSmoother::new(2, opts).unwrap();
        assert!(matches!(
            stream.smoothed(),
            Err(KalmanError::RankDeficient { .. })
        ));
        stream.observe(identity_obs(2, vec![1.0, 2.0])).unwrap();
        let est = stream.smoothed().unwrap();
        assert!((est.mean(0)[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_malformed_ingestion() {
        let opts = StreamOptions::default();
        assert!(StreamingSmoother::new(0, opts).is_err());
        assert!(StreamingSmoother::new(
            1,
            StreamOptions {
                lag: 0,
                ..StreamOptions::default()
            }
        )
        .is_err());

        let mut stream = StreamingSmoother::new(2, opts).unwrap();
        // F column mismatch.
        assert!(stream.evolve(Evolution::random_walk(3)).is_err());
        // c length mismatch.
        let mut evo = Evolution::random_walk(2);
        evo.c = vec![0.0; 5];
        assert!(stream.evolve(evo).is_err());
        // Bad noise.
        let mut evo = Evolution::random_walk(2);
        evo.noise = CovarianceSpec::ScaledIdentity(2, -1.0);
        assert!(stream.evolve(evo).is_err());
        // Observation dimension mismatches.
        assert!(stream.observe(identity_obs(3, vec![0.0; 3])).is_err());
        let mut bad = identity_obs(2, vec![0.0; 2]);
        bad.o = vec![0.0; 4];
        assert!(stream.observe(bad).is_err());
        // Stream is still usable after rejected events.
        stream.observe(identity_obs(2, vec![0.0, 0.0])).unwrap();
        assert_eq!(stream.next_index(), 1);
    }

    /// An evolution into a zero-dimensional state (`F` with no rows, `H =
    /// I`) is refused before it reaches the window: accepted, it became the
    /// window's base and no snapshot of the stream could be restored.
    #[test]
    fn zero_dimensional_evolution_is_refused_and_the_stream_goes_on() {
        let opts = StreamOptions {
            lag: 2,
            flush_every: 1,
            covariances: true,
            ..StreamOptions::default()
        };
        let mut stream =
            StreamingSmoother::with_prior(vec![0.0; 2], CovarianceSpec::Identity(2), opts).unwrap();
        stream.observe(identity_obs(2, vec![1.0, 2.0])).unwrap();
        let empty = Evolution {
            f: Matrix::zeros(0, 2),
            h: None,
            c: Vec::new(),
            noise: CovarianceSpec::Identity(0),
        };
        for _ in 0..2 {
            assert!(matches!(
                stream.evolve(empty.clone()),
                Err(KalmanError::InvalidModel(_))
            ));
            assert_eq!((stream.next_index(), stream.buffered_len()), (1, 1));
            assert_eq!(stream.state_dim(), 2);
        }
        let mut finalized = Vec::new();
        for i in 1..8 {
            finalized.extend(stream.evolve(Evolution::random_walk(2)).unwrap());
            stream
                .observe(identity_obs(2, vec![i as f64, 0.5]))
                .unwrap();
            assert!(matches!(
                stream.evolve(empty.clone()),
                Err(KalmanError::InvalidModel(_))
            ));
        }
        finalized.extend(stream.flush().unwrap());
        assert_eq!(finalized.len(), 6, "steps 0..=5 are more than lag behind 7");
        let mut restored = StreamingSmoother::restore(stream.snapshot().unwrap(), opts).unwrap();
        let (tail, _) = stream.finish().unwrap();
        let (again, _) = restored.flush().and_then(|_| restored.finish()).unwrap();
        assert_eq!(tail.last().unwrap().index, 7);
        assert_eq!(again.last().map(|f| f.index), Some(7));
    }

    fn assert_same_step(got: &FinalizedStep, mean: &[f64], cov: &Matrix, what: &str) {
        assert_eq!(
            bits(&got.mean),
            bits(mean),
            "{what}: state {} mean",
            got.index
        );
        let got_cov = got.covariance.as_ref().expect("covariance stream");
        assert_eq!(
            bits(got_cov.as_slice()),
            bits(cov.as_slice()),
            "{what}: state {} covariance",
            got.index
        );
    }

    /// Every flush of a covariance stream keeps only the covariances it
    /// emits and sweeps the rest through two scratch blocks; `smoothed()`
    /// keeps them all.  Both walks run the same arithmetic, so what a flush
    /// emits is bit for bit what `smoothed()` read for the same window just
    /// before — on the fixed-size bodies (n = 4, 8) and the general ones
    /// (n = 3, 16), after `drop_last` rolled an eliminated step back and on
    /// a stream restored from a snapshot.
    #[test]
    fn flushes_emit_bitwise_what_smoothed_reads() {
        for n in [3usize, 4, 8, 16] {
            let mut rng = ChaCha8Rng::seed_from_u64(40 + n as u64);
            let model = generators::paper_benchmark(&mut rng, n, 60, true);
            let opts = StreamOptions {
                lag: 7,
                flush_every: 3,
                covariances: true,
                auto_flush: false,
                ..StreamOptions::default()
            };
            // Flushes (or finishes) `stream`, comparing what it emits with
            // what `smoothed()` read just before; returns the count.
            let checked_flush = |stream: StreamingSmoother, finish: bool, what: &str| {
                let base = stream.next_index() - stream.buffered_len() as u64;
                let read = stream.smoothed().unwrap();
                let covs = read.covariances.as_ref().unwrap();
                let (emitted, stream) = if finish {
                    (stream.finish().unwrap().0, None)
                } else {
                    let mut stream = stream;
                    (stream.flush().unwrap(), Some(stream))
                };
                for f in &emitted {
                    let j = (f.index - base) as usize;
                    assert_same_step(f, &read.means[j], &covs[j], what);
                }
                (emitted.len(), stream)
            };
            let p = model.prior.as_ref().unwrap();
            let mut stream =
                StreamingSmoother::with_prior(p.mean.clone(), p.cov.clone(), opts).unwrap();
            let mut checked = 0;
            for (i, step) in model.steps.iter().enumerate() {
                if i > 0 {
                    stream.evolve(step.evolution.clone().unwrap()).unwrap();
                }
                stream.observe(step.observation.clone().unwrap()).unwrap();
                let what = format!("n={n} step {i}");
                if i % 11 == 9 {
                    // A step that arrives, is eliminated through by a flush
                    // and is taken back: `drop_last` rolls step `i` back.
                    stream.evolve(Evolution::random_walk(n)).unwrap();
                    stream.observe(identity_obs(n, vec![3.0; n])).unwrap();
                    let (count, rest) = checked_flush(stream, false, &what);
                    (checked, stream) = (checked + count, rest.unwrap());
                    assert!(count > 0 && stream.eliminated_len() > 0, "{what}");
                    stream.drop_last().unwrap();
                }
                if i % 13 == 7 {
                    stream = StreamingSmoother::restore(stream.snapshot().unwrap(), opts).unwrap();
                }
                if i % 4 == 3 {
                    let (count, rest) = checked_flush(stream, false, &what);
                    (checked, stream) = (checked + count, rest.unwrap());
                }
            }
            checked += checked_flush(stream, true, &format!("n={n} finish")).0;
            assert!(checked > 50, "n={n}: {checked} steps compared");
        }
    }

    /// A slot holds `3n² + 2n` doubles in either kind of ring: the prior
    /// plus the block row without covariances, the prior plus `X`, `A`, `b`
    /// with them — live slots and spare ones alike.
    #[test]
    fn slots_hold_three_blocks_and_two_columns() {
        for covariances in [false, true] {
            for n in [3usize, 4, 8] {
                let mut rng = ChaCha8Rng::seed_from_u64(50 + n as u64);
                let model = generators::paper_benchmark(&mut rng, n, 40, true);
                let opts = StreamOptions {
                    lag: 6,
                    flush_every: 4,
                    covariances,
                    ..StreamOptions::default()
                };
                let p = model.prior.as_ref().unwrap();
                let mut stream =
                    StreamingSmoother::with_prior(p.mean.clone(), p.cov.clone(), opts).unwrap();
                for event in events_of(&model) {
                    stream.ingest(event).unwrap();
                }
                stream.flush().unwrap();
                let doubles = stream.ring.slot_doubles();
                assert!(doubles.len() > opts.lag, "live and spare slots");
                for d in doubles {
                    assert_eq!(d, 3 * n * n + 2 * n, "n={n} covariances={covariances}");
                }
            }
        }
    }

    #[test]
    fn rejects_degenerate_lag_policies() {
        use crate::LagPolicy;
        let bad = |p: LagPolicy| StreamOptions {
            lag_policy: Some(p),
            ..StreamOptions::default()
        };
        assert!(StreamingSmoother::new(1, bad(LagPolicy::Fixed(0))).is_err());
        assert!(StreamingSmoother::new(1, bad(LagPolicy::Fixed(4))).is_ok());
    }

    /// A stream on a steady cadence sizes its ring at the first flush and
    /// never again; every later flush eliminates exactly the steps that
    /// arrived since.
    #[test]
    fn steady_stream_sizes_its_ring_once() {
        let opts = StreamOptions {
            lag: 6,
            flush_every: 3,
            covariances: false,
            policy: ExecPolicy::Seq,
            ..StreamOptions::default()
        };
        let mut stream =
            StreamingSmoother::with_prior(vec![0.0], CovarianceSpec::Identity(1), opts).unwrap();
        assert_eq!(stream.plan_builds(), 0);
        assert_eq!(stream.eliminated_len(), 0);
        for i in 0..40 {
            if i > 0 {
                stream.evolve(Evolution::random_walk(1)).unwrap();
            }
            stream.observe(identity_obs(1, vec![i as f64])).unwrap();
            assert!(stream.eliminated_len() < stream.buffered_len());
        }
        assert_eq!(
            stream.plan_builds(),
            1,
            "steady flush cadence must reuse the ring's storage"
        );
        // The last flush saw a 9-step window, eliminated all but its
        // newest step and forgot the 3 it finalized.
        assert_eq!(stream.eliminated_len(), 9 - 1 - 3);
    }

    #[test]
    fn dimension_changes_cross_the_window_boundary() {
        // Rectangular-H dimension changes must survive condensation.
        let mut rng = ChaCha8Rng::seed_from_u64(24);
        let model = generators::dimension_change(&mut rng, 3, 24);
        let opts = StreamOptions {
            lag: 6,
            flush_every: 3,
            covariances: false,
            ..StreamOptions::default()
        };
        let (finalized, _) = stream_model(&model, opts);
        assert_eq!(finalized.len(), 25);
        // Dims alternate 3, 4, 3, 4, …
        assert_eq!(finalized[0].mean.len(), 3);
        assert_eq!(finalized[1].mean.len(), 4);
        assert_eq!(finalized[2].mean.len(), 3);
    }
}
