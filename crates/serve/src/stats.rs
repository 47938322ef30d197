//! Serving metrics: the typed view over the `kalman-obs` registry and the
//! [`Stats`] snapshot.
//!
//! Every serving counter lives in the global metric registry under
//! `serve.pool{N}.shard{S}.*` names (so the Prometheus/JSON exporters see
//! them with no extra wiring), and the serving layer holds `&'static`
//! handles resolved once at construction — the hot paths never touch the
//! registry.  [`ShardStats`] / [`Stats`] read those same metrics back
//! into the owned snapshot the serving API has always exposed.

use std::fmt;
use std::time::Duration;

use kalman_obs::{Counter, Gauge, Histogram, HistogramSnapshot};

/// The per-shard metric handles: `&'static` references into the
/// `kalman-obs` registry, resolved once by [`ShardMetrics::register`] and
/// copied freely between the producer-side [`crate::Ingress`] handles and
/// the consumer-side shard.  Updates are lock-free relaxed atomics.
#[derive(Clone, Copy)]
pub(crate) struct ShardMetrics {
    /// Operations accepted into the shard's queue.
    pub submitted: &'static Counter,
    /// Times backpressure engaged on submit (rejected `try_submit`s plus
    /// async submits that had to wait for room).
    pub throttled: &'static Counter,
    /// 1 while producers are currently throttled, 0 once a submit
    /// succeeds again; edge transitions emit `serve.backpressure_on`/
    /// `…_off` journal events.
    pub engaged: &'static Gauge,
    /// Operations popped from the queue by drains.
    pub drained: &'static Counter,
    /// Drained operations that failed to apply.
    pub ingest_errors: &'static Counter,
    /// Stream-flushes that succeeded across all drains.
    pub flushed_streams: &'static Counter,
    /// Finalized steps emitted across all drains.
    pub flushed_steps: &'static Counter,
    /// Stream-flushes that failed (the stream retries on a later drain).
    pub flush_errors: &'static Counter,
    /// Events the canonical cadence gated into the deferred queue.
    pub gated: &'static Counter,
    /// Most recent batched-flush wall clock, nanoseconds.
    pub last_flush_ns: &'static Gauge,
    /// Latency distribution of batched flushes (`poll_into_where`); its
    /// `count` is the number of flushes and its `sum` the total flush
    /// time.
    pub flush_latency: &'static Histogram,
    /// Submit-to-drain queue-wait distribution (nanoseconds), recorded
    /// from the [`kalman_obs::Stamp`] each op carries.  Empty when
    /// instrumentation is disabled (stamps go inert).
    pub queue_wait: &'static Histogram,
}

impl ShardMetrics {
    /// Resolves (registering on first use) the full handle set for shard
    /// `s` of the pool named by `prefix` (e.g. `serve.pool0`).
    pub fn register(prefix: &str, s: usize) -> ShardMetrics {
        let name = |leaf: &str| format!("{prefix}.shard{s}.{leaf}");
        ShardMetrics {
            submitted: kalman_obs::counter(&name("submitted")),
            throttled: kalman_obs::counter(&name("throttled")),
            engaged: kalman_obs::gauge(&name("backpressure_engaged")),
            drained: kalman_obs::counter(&name("drained")),
            ingest_errors: kalman_obs::counter(&name("ingest_errors")),
            flushed_streams: kalman_obs::counter(&name("flushed_streams")),
            flushed_steps: kalman_obs::counter(&name("flushed_steps")),
            flush_errors: kalman_obs::counter(&name("flush_errors")),
            gated: kalman_obs::counter(&name("gated")),
            last_flush_ns: kalman_obs::gauge(&name("last_flush_ns")),
            flush_latency: kalman_obs::histogram(&name("flush_latency")),
            queue_wait: kalman_obs::histogram(&name("queue_wait")),
        }
    }
}

/// One shard's view of the serving metrics, as captured by
/// [`crate::ShardedPool::stats`].
#[derive(Debug, Clone, Default)]
pub struct ShardStats {
    /// Live streams resident on this shard.
    pub streams: usize,
    /// Streams whose windows are full right now (the next drain flushes
    /// them).
    pub ready: usize,
    /// Operations currently waiting in the shard's bounded queue.
    pub queue_depth: usize,
    /// The queue's capacity bound.
    pub queue_capacity: usize,
    /// Operations ever accepted into the queue.
    pub submitted: u64,
    /// Times backpressure engaged on submit (rejected `try_submit`s plus
    /// async submits that had to wait for room).
    pub throttled: u64,
    /// Operations popped from the queue by drains.
    pub drained: u64,
    /// Drained operations that failed to apply (unknown key, model
    /// validation error); see [`crate::ShardedPool::last_errors`].
    pub ingest_errors: u64,
    /// Batched flushes (`poll_into` calls) this shard has run.
    pub flushes: u64,
    /// Stream-flushes that succeeded across all drains.
    pub flushed_streams: u64,
    /// Finalized steps emitted across all drains.
    pub flushed_steps: u64,
    /// Stream-flushes that failed (the stream is unchanged and retries on
    /// a later drain).
    pub flush_errors: u64,
    /// Events the canonical flush cadence gated (deferred inside a drain
    /// until the triggering flush ran).
    pub gated: u64,
    /// Wall-clock time of the most recent batched flush.
    pub last_flush: Duration,
    /// Wall-clock time summed over all batched flushes.
    ///
    /// **Semantics:** this is CPU-side *work* time, not elapsed serving
    /// time.  The aggregate row sums it **across shards**, so on a serial
    /// drain loop (shards flushed one after the other, as
    /// [`crate::ShardedPool::drain`] does) the aggregate approximates
    /// wall clock, while on a hypothetical parallel drain it would
    /// overstate it — for elapsed-time questions use
    /// [`Stats::drain_latency`], which times whole drains.
    pub total_flush: Duration,
    /// Latency distribution of this shard's batched flushes
    /// (nanosecond observations; `flushes` is its count).
    pub flush_latency: HistogramSnapshot,
    /// Submit-to-drain queue-wait distribution (nanoseconds).  Empty when
    /// instrumentation is disabled (the `Stamp`s go inert).
    pub queue_wait: HistogramSnapshot,
}

impl ShardStats {
    /// Mean batched-flush wall clock, from the flush-latency histogram.
    pub fn mean_flush(&self) -> Duration {
        Duration::from_nanos(self.flush_latency.mean() as u64)
    }

    /// 99th-percentile batched-flush wall clock, from the flush-latency
    /// histogram (log-bucketed: within 2x of the true value).
    pub fn p99_flush(&self) -> Duration {
        Duration::from_nanos(self.flush_latency.p99() as u64)
    }

    /// Folds `other` into an aggregate: counters add, `last_flush` takes
    /// the maximum (the slowest shard bounds the serving tick), histogram
    /// snapshots merge bucket-wise.
    fn absorb(&mut self, other: &ShardStats) {
        self.streams += other.streams;
        self.ready += other.ready;
        self.queue_depth += other.queue_depth;
        self.queue_capacity += other.queue_capacity;
        self.submitted += other.submitted;
        self.throttled += other.throttled;
        self.drained += other.drained;
        self.ingest_errors += other.ingest_errors;
        self.flushes += other.flushes;
        self.flushed_streams += other.flushed_streams;
        self.flushed_steps += other.flushed_steps;
        self.flush_errors += other.flush_errors;
        self.gated += other.gated;
        self.last_flush = self.last_flush.max(other.last_flush);
        self.total_flush += other.total_flush;
        self.flush_latency.merge(&other.flush_latency);
        self.queue_wait.merge(&other.queue_wait);
    }
}

/// A point-in-time snapshot of the whole serving layer, one
/// [`ShardStats`] per shard.  Allocates (it folds registry metrics into
/// an owned snapshot); take it at reporting frequency, not per drain.
#[derive(Debug, Clone)]
pub struct Stats {
    /// Per-shard metrics, indexed by shard.
    pub shards: Vec<ShardStats>,
    /// Whole-drain latency distribution (nanosecond observations, one per
    /// [`crate::ShardedPool::drain`]) — the elapsed-time complement of
    /// the per-shard `total_flush` work times.
    pub drain_latency: HistogramSnapshot,
}

impl Stats {
    /// Sums the per-shard metrics (with `last_flush` = the slowest
    /// shard's most recent flush, and histograms merged).  Note the
    /// `total_flush` caveat on [`ShardStats::total_flush`]: the sum is
    /// per-shard work time, an elapsed-time proxy only for serial
    /// drains.
    pub fn aggregate(&self) -> ShardStats {
        let mut total = ShardStats::default();
        for s in &self.shards {
            total.absorb(s);
        }
        total
    }
}

fn row(f: &mut fmt::Formatter<'_>, label: &str, m: &ShardStats) -> fmt::Result {
    writeln!(
        f,
        "{label:>6}  {:>7}  {:>9}  {:>9}  {:>7}  {:>7}  {:>8.1} ({:>8.1})",
        m.streams,
        m.submitted,
        m.throttled,
        m.flushes,
        m.flushed_steps,
        m.mean_flush().as_secs_f64() * 1e6,
        m.p99_flush().as_secs_f64() * 1e6,
    )
}

/// The serving-metrics table: one aligned row per shard, an `all`
/// aggregate row, and a drain-latency quantile line.  Used by
/// `examples/serving.rs`.
impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            " shard  streams  submitted  throttled  flushes    steps  flush µs (p99 µs)"
        )?;
        for (s, m) in self.shards.iter().enumerate() {
            row(f, &s.to_string(), m)?;
        }
        row(f, "all", &self.aggregate())?;
        let d = &self.drain_latency;
        write!(
            f,
            "drain latency over {} drains: p50 {:.1} µs, p95 {:.1} µs, p99 {:.1} µs",
            d.count,
            d.p50() / 1e3,
            d.p95() / 1e3,
            d.p99() / 1e3,
        )
    }
}
