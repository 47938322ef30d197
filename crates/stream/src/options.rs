//! Configuration and output types of the streaming smoother.

use kalman_dense::Matrix;
use kalman_odd_even::BackendPolicy;
use kalman_par::ExecPolicy;

/// How a [`crate::StreamingSmoother`] picks its finalization lag: by hand.
/// [`StreamOptions::lag_policy`] stays because `benchmark/src/spec.rs`
/// pins the field with an exhaustive struct literal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LagPolicy {
    /// Always exactly this lag (≥ 1).
    Fixed(usize),
}

/// Configuration of a [`crate::StreamingSmoother`].
#[derive(Debug, Clone, Copy)]
pub struct StreamOptions {
    /// Finalization lag `L` (≥ 1): a step is finalized once at least `L`
    /// newer steps exist.  Larger lags track the hindsight batch solution
    /// more closely (influence of post-window data decays geometrically)
    /// at the cost of latency and window size.  Overridden by
    /// [`StreamOptions::lag_policy`] when one is set.
    pub lag: usize,
    /// A lag that overrides [`StreamOptions::lag`]; `None` (the default)
    /// keeps it.
    pub lag_policy: Option<LagPolicy>,
    /// Flush hysteresis (≥ 1): how many finalizable steps accumulate before
    /// the window is re-smoothed.  The window holds at most
    /// `lag + flush_every` steps; each flush finalizes `flush_every` of
    /// them.  A step is eliminated once whatever the cadence; what a
    /// smaller `flush_every` buys in latency it pays in back substitution
    /// (and SelInv): `lag / flush_every + 1` passes over each step.
    pub flush_every: usize,
    /// Emit `cov(û_i)` with every finalized step (runs the SelInv phase on
    /// each window; every eliminated step then also keeps the two `n × n`
    /// terms of that recursion, so each `R` block is inverted once).
    pub covariances: bool,
    /// Not consulted by a stream: its flush is a sequential sweep, and
    /// parallelism lives *across* streams, under the policy of the
    /// [`crate::SmootherPool`] that flushes them.  (It selected
    /// within-window parallelism when a flush re-factored the whole window
    /// with the odd-even engine; the field stays because
    /// `benchmark/src/spec.rs` pins `StreamOptions` with an exhaustive
    /// struct literal.)
    pub policy: ExecPolicy,
    /// Flush automatically when [`crate::StreamingSmoother::evolve`] finds
    /// a full window.  Disabled by pooled streams, whose flushes are
    /// batched by [`crate::SmootherPool::poll`].
    pub auto_flush: bool,
    /// Not consulted: every flush is the incremental sweep (see DESIGN.md
    /// §"Why serving runs one engine").  The field, its one-variant type
    /// and its byte in the wire layout stay only because
    /// `benchmark/src/spec.rs` builds `StreamOptions` with an exhaustive
    /// struct literal and that directory is frozen; a later
    /// `benchmark`-archetype change can drop all three.
    pub backend: BackendPolicy,
}

impl Default for StreamOptions {
    fn default() -> Self {
        StreamOptions {
            lag: 32,
            lag_policy: None,
            flush_every: 32,
            covariances: false,
            policy: ExecPolicy::par(),
            auto_flush: true,
            backend: BackendPolicy::OddEven,
        }
    }
}

impl StreamOptions {
    /// Options with the given lag (other fields default).
    pub fn with_lag(lag: usize) -> Self {
        StreamOptions {
            lag,
            ..StreamOptions::default()
        }
    }

    /// The lag in effect: [`StreamOptions::lag_policy`]'s, or
    /// [`StreamOptions::lag`] when none is set.
    pub fn effective_lag(&self) -> usize {
        match self.lag_policy {
            Some(LagPolicy::Fixed(lag)) => lag,
            None => self.lag,
        }
    }

    /// The maximum number of buffered steps: the lag plus `flush_every`.
    pub fn window_capacity(&self) -> usize {
        self.effective_lag() + self.flush_every
    }
}

/// A finalized estimate leaving the lag window.  Once emitted it never
/// changes: the stream has condensed the step away and will not revisit it.
#[derive(Debug, Clone)]
pub struct FinalizedStep {
    /// Global step index within the stream (0-based).
    pub index: u64,
    /// Smoothed state estimate `û_i`.
    pub mean: Vec<f64>,
    /// `cov(û_i)`, when [`StreamOptions::covariances`] is set.
    pub covariance: Option<Matrix>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let o = StreamOptions::default();
        assert!(o.lag >= 1 && o.flush_every >= 1);
        assert_eq!(o.window_capacity(), o.lag + o.flush_every);
        assert!(o.auto_flush);
        assert_eq!(o.effective_lag(), o.lag);
        let l = StreamOptions::with_lag(5);
        assert_eq!(l.lag, 5);
    }

    #[test]
    fn lag_policy_bounds_capacity_and_start() {
        let o = StreamOptions {
            lag: 8,
            lag_policy: Some(LagPolicy::Fixed(64)),
            flush_every: 4,
            ..StreamOptions::default()
        };
        assert_eq!(o.effective_lag(), 64);
        assert_eq!(o.window_capacity(), 64 + 4);
        let stream = crate::StreamingSmoother::new(1, o).unwrap();
        assert_eq!(stream.current_lag(), 64);
    }
}
