//! The (single-valued, unconsulted) serving-engine selector.

/// The type of `StreamOptions::backend`, a selector with nothing left to
/// select.
///
/// A stream's flush is an incremental Paige–Saunders sweep and consults no
/// policy (DESIGN.md §"Why serving runs one engine"); the odd-even QR
/// smoother is the batch and parallel-in-time engine, and the associative
/// scan the batch baseline in `kalman-associative`.  The type survives with
/// its one value only because `StreamOptions` is built with exhaustive
/// struct literals outside this workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendPolicy {
    /// The paper's odd-even orthogonal-transformation smoother.
    #[default]
    OddEven,
}
