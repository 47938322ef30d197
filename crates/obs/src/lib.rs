//! Low-overhead observability for the smoothing stack: a static registry
//! of lock-free metrics, RAII phase spans, a fixed-capacity event journal,
//! and Prometheus/JSON exporters.
//!
//! The design goal is the same discipline the numeric stack lives by:
//! **zero heap allocations in steady state**.  Registration (naming a
//! metric, first execution of a `span!` call site) may allocate; every
//! subsequent hot-path update is a handful of relaxed atomic operations on
//! pre-registered storage.
//!
//! | Piece | What it is |
//! |---|---|
//! | [`Counter`] | Monotone counter, striped across cache-padded per-thread cells |
//! | [`Gauge`] | Point-in-time signed value |
//! | [`Histogram`] | Log-bucketed (HDR-style) latency histogram with p50/p95/p99 readout |
//! | [`span!`] | RAII phase timer recording into a per-call-site histogram |
//! | [`Stamp`] | Queue-wait timestamp carried through channels |
//! | [`event`] | Fixed-capacity ring journal for rare events, with drop accounting |
//! | [`prometheus_text`] / [`json_snapshot`] | Exporters over the whole registry |
//!
//! # Two kill switches
//!
//! * **Runtime** ([`set_enabled`]): gates the instrumentation layer —
//!   spans, stamps, journal events — behind one relaxed atomic load, so
//!   enabled-vs-disabled overhead can be A/B-measured inside a single
//!   process (the `speedup/obs_on` benchmark gate does exactly this).
//! * **Compile time** (cargo feature `off`, exposed as `obs-off` on the
//!   umbrella crate): the `span!` macro, [`Stamp`], and [`event`] become
//!   no-ops and the disabled build is bitwise-identical in behavior.  The
//!   metric *primitives* stay functional even under `off`, because
//!   `kalman-serve`'s `Stats` snapshot is a typed view over them.
//!
//! # Example
//!
//! ```
//! use kalman_obs as obs;
//!
//! let hits = obs::counter("demo.cache.hits");
//! hits.add(3);
//! assert_eq!(hits.get(), 3);
//!
//! let lat = obs::histogram("demo.latency");
//! for ns in [100u64, 200, 400, 800] {
//!     lat.record(ns);
//! }
//! let snap = lat.snapshot();
//! assert_eq!(snap.count, 4);
//! assert!(snap.quantile(0.5) >= 100.0);
//!
//! {
//!     let _span = obs::span!("demo.phase");
//!     // ... timed work ...
//! }
//! // Text exposition covers everything registered so far.
//! assert!(obs::prometheus_text().contains("demo_cache_hits"));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod export;
mod journal;
mod metrics;
mod registry;

pub use export::{json_snapshot, prometheus_text};
pub use journal::{journal_dropped, journal_events, journal_recorded, Event};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, HIST_BUCKETS};
pub use registry::{
    counter, gauge, histogram, metrics_snapshot, register_sampler, MetricReading, MetricValue,
};

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Turns the runtime instrumentation switch on or off.  Affects spans,
/// stamps, and journal events — never the metric primitives, which the
/// serving layer's counters always update.  Defaults to on.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// `true` when the instrumentation layer is live: the crate was built
/// without the `off` feature *and* the runtime switch is on.
#[cfg(not(feature = "off"))]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// `true` when the instrumentation layer is live — always `false` in this
/// build, which carries the compile-time `off` feature.
#[cfg(feature = "off")]
pub fn enabled() -> bool {
    false
}

/// Appends a journal event (see [`journal_events`]) when instrumentation
/// is enabled.  `a` and `b` are free-form payload words (a stream key, a
/// shard index, a slot — whatever identifies the event).
/// Allocation-free after the journal's one-time initialization.
#[cfg(not(feature = "off"))]
pub fn event(kind: &'static str, a: u64, b: u64) {
    if enabled() {
        journal::record(kind, a, b);
    }
}

/// Appends a journal event — a no-op in this build (`off` feature).
#[cfg(feature = "off")]
pub fn event(kind: &'static str, a: u64, b: u64) {
    let _ = (kind, a, b);
}

/// An RAII phase timer: records the span's wall-clock duration (in
/// nanoseconds) into its histogram when dropped.  Construct through the
/// [`span!`] macro, which caches the histogram handle per call site.
#[derive(Debug)]
pub struct SpanGuard(Option<(&'static Histogram, std::time::Instant)>);

impl SpanGuard {
    /// A live guard timing into `hist` ([`span!`] calls this when
    /// instrumentation is enabled).
    pub fn enter(hist: &'static Histogram) -> SpanGuard {
        if enabled() {
            SpanGuard(Some((hist, std::time::Instant::now())))
        } else {
            SpanGuard(None)
        }
    }

    /// A guard that records nothing (the disabled expansion of [`span!`]).
    pub fn disabled() -> SpanGuard {
        SpanGuard(None)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((hist, start)) = self.0 {
            hist.record(start.elapsed().as_nanos() as u64);
        }
    }
}

/// Times the enclosing scope into the named histogram:
///
/// ```
/// # use kalman_obs as kalman_obs;
/// {
///     let _span = kalman_obs::span!("doc.example.phase");
///     // ... the timed phase ...
/// }
/// # if kalman_obs::enabled() {
/// assert_eq!(kalman_obs::histogram("doc.example.phase").snapshot().count, 1);
/// # }
/// ```
///
/// The histogram handle is resolved once per call site (a `OnceLock`), so
/// steady-state spans cost two `Instant` reads and one histogram record —
/// and nothing at all when instrumentation is disabled ([`set_enabled`])
/// or compiled out (`off` feature).  Bind the guard (`let _span = …`);
/// an unbound `span!(…)` drops immediately and times nothing.
#[cfg(not(feature = "off"))]
#[macro_export]
macro_rules! span {
    ($name:expr) => {{
        static SITE: ::std::sync::OnceLock<&'static $crate::Histogram> =
            ::std::sync::OnceLock::new();
        $crate::SpanGuard::enter(SITE.get_or_init(|| $crate::histogram($name)))
    }};
}

/// Times the enclosing scope into the named histogram — compiled to a
/// no-op in this build (`off` feature).
#[cfg(feature = "off")]
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::SpanGuard::disabled()
    };
}

/// A creation timestamp carried through queues to measure queue-wait
/// latency.  With instrumentation enabled it wraps an `Instant`; when
/// disabled at runtime it is inert, and under the `off` feature the type
/// holds no data at all — so the queue element layout carries no live
/// clock in disabled builds.
#[cfg(not(feature = "off"))]
#[derive(Debug, Clone, Copy)]
pub struct Stamp(Option<std::time::Instant>);

#[cfg(not(feature = "off"))]
impl Stamp {
    /// A stamp of the current instant (inert when instrumentation is
    /// disabled).
    pub fn now() -> Stamp {
        Stamp(enabled().then(std::time::Instant::now))
    }

    /// Nanoseconds since the stamp was taken, or `None` for an inert
    /// stamp.
    pub fn elapsed_ns(&self) -> Option<u64> {
        self.0.map(|t| t.elapsed().as_nanos() as u64)
    }

    /// Nanoseconds from this stamp to `later` (zero if `later` is in fact
    /// earlier), or `None` when either is inert: one clock read serves any
    /// number of stamps.
    pub fn ns_until(&self, later: &Stamp) -> Option<u64> {
        let elapsed = later.0?.saturating_duration_since(self.0?);
        Some(elapsed.as_nanos() as u64)
    }
}

/// A creation timestamp carried through queues — a zero-sized no-op in
/// this build (`off` feature).
#[cfg(feature = "off")]
#[derive(Debug, Clone, Copy)]
pub struct Stamp;

#[cfg(feature = "off")]
impl Stamp {
    /// An inert stamp (the `off` feature compiles the clock out).
    pub fn now() -> Stamp {
        Stamp
    }

    /// Always `None` in this build.
    pub fn elapsed_ns(&self) -> Option<u64> {
        None
    }

    /// Always `None` in this build.
    pub fn ns_until(&self, _later: &Stamp) -> Option<u64> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The runtime switch is process-global; tests that read or flip it
    /// must not interleave.
    static SWITCH_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn span_records_into_named_histogram() {
        let _lock = SWITCH_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let before = histogram("test.lib.span").snapshot().count;
        {
            let _span = span!("test.lib.span");
            std::hint::black_box(1 + 1);
        }
        let after = histogram("test.lib.span").snapshot().count;
        if enabled() {
            assert_eq!(after, before + 1);
        } else {
            assert_eq!(after, before);
        }
    }

    #[test]
    fn runtime_switch_gates_spans_and_stamps() {
        let _lock = SWITCH_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        if cfg!(feature = "off") {
            assert!(!enabled());
            return;
        }
        set_enabled(false);
        let before = histogram("test.lib.gated").snapshot().count;
        {
            let _span = span!("test.lib.gated");
        }
        assert_eq!(histogram("test.lib.gated").snapshot().count, before);
        assert!(Stamp::now().elapsed_ns().is_none());
        set_enabled(true);
        {
            let _span = span!("test.lib.gated");
        }
        assert_eq!(histogram("test.lib.gated").snapshot().count, before + 1);
        assert!(Stamp::now().elapsed_ns().is_some());
    }
}
