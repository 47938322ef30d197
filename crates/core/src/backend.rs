//! The (single-valued) serving-engine selector.

/// Which engine executes a stream's window flushes
/// (`StreamOptions::backend`).
///
/// Serving runs one engine, the odd-even QR smoother: the associative scan
/// measured 3.3× slower on the steady window flush and was withdrawn from
/// dispatch (DESIGN.md §"Why serving runs one engine"); it remains the
/// batch baseline in `kalman-associative`.  The type survives with its one
/// value only because `StreamOptions` is built with exhaustive struct
/// literals outside this workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendPolicy {
    /// The paper's odd-even orthogonal-transformation smoother.
    #[default]
    OddEven,
}
