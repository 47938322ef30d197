//! The four workloads.  Names here are the names in `BENCHMARK.json`.

use kalman::prelude::{BackendPolicy, ExecPolicy, StreamOptions};

/// Which path a workload's end-to-end numbers come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One warm `SmoothPlan::smooth_model_into` per op.
    Batch,
    /// `ShardedPool`: closed-loop phase A, then open-loop phase B.
    Serve,
    /// The phase-A event set sent through a `Supervisor` with two workers.
    Cluster,
}

/// One workload: the path it measures and the shape it runs at.  The
/// traced run probes *every* layer at this shape, so a batch workload also
/// carries the stream shape its serving-side probes use.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    /// State dimension.
    pub n: usize,
    /// Batch model length (`k + 1` states).
    pub batch_k: usize,
    pub streams: usize,
    pub lag: usize,
    pub flush_every: usize,
    pub covariances: bool,
    /// Open-loop (phase B) rate over all streams, events per second.
    pub rate_eps: f64,
    /// Report times and rates on the reference machine's clock (scaled by
    /// the calibration loop) instead of the wall clock.  Holds where the
    /// thread that runs the calibration loop also does the work; not on
    /// the cluster path, whose time goes to two worker processes and
    /// socket waits — there the loop read 0.6 to 1.6 ms within single
    /// runs whose rounds were steady, and scaling tripled the spread.
    pub reference_clock: bool,
}

/// Shards of every in-process pool, and workers of every cluster.
pub const SHARDS: usize = 2;
/// Per-shard ingress queue bound.
pub const QUEUE_CAPACITY: usize = 1024;
/// The single-core comparison (odd-even vs Paige–Saunders, RTS, scan) and
/// the 2-thread probe run on a model of at most this many steps.
pub const COMPARE_K: usize = 500;

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "batch_n48",
        kind: Kind::Batch,
        n: 48,
        batch_k: 2000,
        streams: 4,
        lag: 12,
        flush_every: 6,
        covariances: true,
        rate_eps: 400.0,
        reference_clock: true,
    },
    Spec {
        name: "serve_light",
        kind: Kind::Serve,
        n: 4,
        batch_k: 0,
        streams: 64,
        lag: 12,
        flush_every: 6,
        covariances: false,
        rate_eps: 80_000.0,
        reference_clock: true,
    },
    Spec {
        name: "serve_heavy",
        kind: Kind::Serve,
        n: 8,
        batch_k: 0,
        streams: 16,
        lag: 32,
        flush_every: 8,
        covariances: true,
        rate_eps: 16_000.0,
        reference_clock: true,
    },
    Spec {
        name: "cluster_light",
        kind: Kind::Cluster,
        n: 4,
        batch_k: 0,
        streams: 64,
        lag: 12,
        flush_every: 6,
        covariances: false,
        rate_eps: 80_000.0,
        reference_clock: false,
    },
];

impl Spec {
    pub fn by_name(name: &str) -> Option<Spec> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// Steps in a full window: what one steady flush re-smooths.
    pub fn window(&self) -> usize {
        self.lag + self.flush_every
    }

    /// Everything sequential and pinned: no environment variable or
    /// thread count changes what runs.
    pub fn stream_options(&self) -> StreamOptions {
        StreamOptions {
            lag: self.lag,
            lag_policy: None,
            flush_every: self.flush_every,
            covariances: self.covariances,
            policy: ExecPolicy::Seq,
            auto_flush: true,
            backend: BackendPolicy::OddEven,
        }
    }

    /// Phase-B period of one stream's events, in nanoseconds.
    pub fn period_ns(&self, rate_eps: f64) -> f64 {
        self.streams as f64 / rate_eps * 1e9
    }
}
