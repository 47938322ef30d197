//! Suspend/resume state for a stream.

use kalman_model::InfoHead;

/// The complete persistent state of a finished stream: everything needed to
/// continue it later from where it stopped, in `O(n²)` space.
///
/// Produced by [`crate::StreamingSmoother::finish`]; consumed by
/// [`crate::StreamingSmoother::resume`].  The head summarizes *all* data of
/// the finished stream (including the final state's observations) as
/// whitened information rows on state `index`, so a resumed stream's
/// estimates continue exactly as if the stream had never been interrupted.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Index of the last finalized state — the state the head constrains.
    pub index: u64,
    /// Condensed information on state `index`.
    pub head: InfoHead,
}

impl Checkpoint {
    /// Dimension of the checkpointed state.
    pub fn state_dim(&self) -> usize {
        self.head.state_dim()
    }

    /// Decomposes the checkpoint into plain matrices — the transportable
    /// form: `(index, C, d)` where `C û_index ≈ d` are the head's whitened
    /// information rows.  A serving layer can ship these across a process
    /// boundary (the building block for cross-process shard migration) and
    /// reassemble with [`Checkpoint::from_parts`].
    pub fn into_parts(self) -> (u64, kalman_dense::Matrix, kalman_dense::Matrix) {
        let (c, d) = self.head.into_rows();
        (self.index, c, d)
    }

    /// Reassembles a checkpoint from [`Checkpoint::into_parts`] output:
    /// `c` holds the whitened information rows on state `index` and `d`
    /// the matching right-hand side.
    ///
    /// # Errors
    ///
    /// [`kalman_model::KalmanError::Stream`] unless `d` is a single
    /// column with the same row count as `c`, the state dimension (`c`'s
    /// column count) is positive and at most
    /// [`MAX_STATE_DIM`](crate::MAX_STATE_DIM), `c` has no more rows than
    /// columns (the head is an upper-trapezoidal R-factor condensation,
    /// `r ≤ n`), and
    /// every entry is finite (forgetting is exact, so one NaN/∞ in a head
    /// would stay in the stream's priors forever)
    /// — this is the trust boundary for checkpoints arriving off the
    /// wire, so malformed parts must surface as a stream-layer error
    /// here, never as a panic or a confusing model error downstream.
    pub fn from_parts(
        index: u64,
        c: kalman_dense::Matrix,
        d: kalman_dense::Matrix,
    ) -> kalman_model::Result<Checkpoint> {
        if d.cols() != 1 {
            return Err(kalman_model::KalmanError::Stream(format!(
                "checkpoint right-hand side must be one column, got {}",
                d.cols()
            )));
        }
        if c.rows() != d.rows() {
            return Err(kalman_model::KalmanError::Stream(format!(
                "checkpoint rows mismatch: C has {} rows but d has {}",
                c.rows(),
                d.rows()
            )));
        }
        if c.cols() == 0 {
            return Err(kalman_model::KalmanError::Stream(
                "checkpoint state dimension must be positive".into(),
            ));
        }
        crate::smoother::check_state_dim(c.cols())?;
        if c.rows() > c.cols() {
            return Err(kalman_model::KalmanError::Stream(format!(
                "checkpoint head must be a condensed R-factor (rows <= state \
                 dimension), got {} rows on a {}-dimensional state",
                c.rows(),
                c.cols()
            )));
        }
        for block in [&c, &d] {
            kalman_model::check_finite(
                block.as_slice(),
                format_args!("checkpoint head"),
                kalman_model::KalmanError::Stream,
            )?;
        }
        Ok(Checkpoint {
            index,
            head: InfoHead::from_rows(c, d),
        })
    }
}

/// The complete *live* state of a running stream's window: the condensed
/// head plus the buffered (not yet finalized) steps as replayable events.
///
/// Unlike a [`Checkpoint`] — which [`crate::StreamingSmoother::finish`]
/// produces by finalizing the whole window early, trading away the
/// hindsight those steps would have gained — a snapshot is *transparent*:
/// [`crate::StreamingSmoother::restore`] reproduces a smoother whose
/// every future output is bitwise identical to the original's.  This is
/// the unit of crash recovery for cross-process serving: a supervisor
/// checkpoints workers by snapshot, and a restarted worker restores and
/// replays the logged suffix to land in exactly the pre-crash state.
#[derive(Debug, Clone)]
pub struct WindowSnapshot {
    /// Global index of the window's base step.
    pub index: u64,
    /// Condensed information on the base state (everything older than the
    /// window, *excluding* the base step's own observations — those are
    /// in [`WindowSnapshot::events`]).
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
}
