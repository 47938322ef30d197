//! The persistent state of a stream.

use kalman_model::{InfoHead, KalmanError, LinearStep, StreamEventRef};

/// The complete state of a stream: the condensed head plus the buffered
/// (not yet finalized) steps as replayable events.
///
/// [`crate::StreamingSmoother::snapshot`] captures a running stream's
/// window without disturbing it, and [`crate::StreamingSmoother::restore`]
/// reproduces a smoother whose every future output is bitwise identical to
/// the original's — the unit of crash recovery for cross-process serving.
/// A finished stream is a snapshot with nothing buffered:
/// [`crate::StreamingSmoother::finish`] returns its final state as the
/// head, already emitted, and `restore` continues it.
#[derive(Debug, Clone)]
pub struct WindowSnapshot {
    /// Global index of the window's base step.
    pub index: u64,
    /// Condensed information on the base state: everything older than the
    /// window, plus the base step's own observations when `events` is
    /// empty (as in a finished stream).  Otherwise those observations are
    /// the first of [`WindowSnapshot::events`].
    pub head: InfoHead,
    /// The base step was already emitted and must not be emitted again.
    pub base_emitted: bool,
    /// The buffered window as replay events: the base step's observation
    /// first (if any), then each later step's evolution followed by its
    /// observation.  Stacked observations appear in final stacked form.
    pub events: Vec<kalman_model::StreamEvent>,
}

impl WindowSnapshot {
    /// Dimension of the window's base state.
    pub fn state_dim(&self) -> usize {
        self.head.state_dim()
    }

    /// Checks the head — the trust boundary for condensed stream state,
    /// run by [`crate::StreamingSmoother::restore`] and by the wire
    /// decoder alike.  Events are checked when `restore` replays them.
    ///
    /// # Errors
    ///
    /// [`KalmanError::Stream`] unless `d` is one column with `C`'s row
    /// count, the state dimension `n` (`C`'s column count) is in
    /// `1..=`[`MAX_STATE_DIM`](crate::MAX_STATE_DIM), `C` has at most `n`
    /// rows (an R-factor condensation), and every entry is finite
    /// (forgetting is exact, so one NaN/∞ would stay in the priors
    /// forever).
    pub fn validate(&self) -> kalman_model::Result<()> {
        let (c, d) = self.head.rows_ref();
        let (r, n) = (c.rows(), c.cols());
        if d.cols() != 1 || d.rows() != r || n == 0 || r > n {
            return Err(KalmanError::Stream(format!(
                "snapshot head must be an R-factor condensation (C r × n with \
                 0 < n and r <= n, d r × 1), got C {r} × {n} and d {} × {}",
                d.rows(),
                d.cols()
            )));
        }
        crate::smoother::check_state_dim(n)?;
        for block in [c, d] {
            kalman_model::check_finite(
                block.as_slice(),
                format_args!("snapshot head"),
                KalmanError::Stream,
            )?;
        }
        Ok(())
    }
}

/// A live stream's state, borrowed from it by
/// [`crate::StreamingSmoother::window`]: what
/// [`crate::StreamingSmoother::snapshot`] copies into a [`WindowSnapshot`],
/// for callers that only read it (an encoder, say).
#[derive(Debug, Clone, Copy)]
pub struct WindowView<'a> {
    /// Global index of the window's base step.
    pub index: u64,
    /// The condensed head, as in [`WindowSnapshot::head`].
    pub head: &'a InfoHead,
    /// The base step was already emitted.
    pub base_emitted: bool,
    /// The buffered steps, `steps[0]` the base.
    pub(crate) steps: &'a [LinearStep],
}

impl<'a> WindowView<'a> {
    /// The buffered window as replay events, in [`WindowSnapshot::events`]
    /// order: each step's evolution followed by its observation.  The base
    /// step carries no evolution (the head holds it), so the window opens
    /// with the base step's observation, if any.
    pub fn events(&self) -> impl Iterator<Item = StreamEventRef<'a>> + 'a {
        self.steps.iter().flat_map(|step| {
            let evolve = step.evolution.as_ref().map(StreamEventRef::Evolve);
            let observe = step.observation.as_ref().map(StreamEventRef::Observe);
            evolve.into_iter().chain(observe)
        })
    }
}
