//! The cluster path: the serving event set sent through a `Supervisor`
//! with two worker processes, and — for the like-for-like gap — through an
//! in-process `ShardedPool` with the same round-paced loop.

use crate::serve::{trigger_event, Checker, Inputs, Served};
use crate::spec::{Spec, SHARDS};
use crate::stats::median;
use crate::trace::{Tracer, NO_OP};
use kalman::cluster::{ClusterConfig, StreamInit, StreamSpec, Supervisor};
use kalman::prelude::{CovarianceSpec, FinalizedStep, StreamOptions};
use std::time::Instant;

/// Event rounds (one event per stream) between two polls or drains, as in
/// `saturation --cluster`.
const POLL_EVERY: usize = 4;

/// A supervisor over `SHARDS` workers re-exec'd from this binary with no
/// arguments (`main` starts with `worker_entry_from_env`); everything else
/// is the default `ClusterConfig`.
pub fn new_supervisor() -> Supervisor {
    Supervisor::new(ClusterConfig {
        workers: SHARDS,
        worker_args: Vec::new(),
        ..ClusterConfig::default()
    })
    .expect("workers start")
}

fn insert_streams(spec: &Spec, sup: &mut Supervisor, first_key: u64) {
    let stream = StreamSpec {
        init: StreamInit::WithPrior {
            mean: vec![0.0; spec.n],
            cov: CovarianceSpec::Identity(spec.n),
        },
        opts: StreamOptions {
            auto_flush: false,
            ..spec.stream_options()
        },
    };
    for s in 0..spec.streams as u64 {
        sup.insert(first_key + s, stream.clone())
            .expect("fresh key");
    }
}

/// What one round through the cluster measured.
pub struct RoundC {
    pub wall_s: f64,
    pub events: u64,
    /// Duration of every `Supervisor::send`, microseconds.
    pub send_us: Vec<f64>,
    /// Duration of every `Supervisor::poll`, milliseconds.
    pub poll_ms: Vec<f64>,
    /// Per finalized step: `send` of the event that triggered its flush to
    /// the return of the `poll` that delivered it, microseconds.
    pub latency_us: Vec<f64>,
}

impl RoundC {
    /// Share of all send time spent in calls over ten times the median
    /// (the sends that also take a snapshot checkpoint).
    pub fn send_slow_share(&self) -> f64 {
        let cut = 10.0 * median(&self.send_us);
        let slow: f64 = self.send_us.iter().filter(|t| **t > cut).sum();
        slow / self.send_us.iter().sum::<f64>()
    }
}

/// One round: fresh streams under keys `first_key..`, every stream's next
/// event sent in turn, a poll every [`POLL_EVERY`] event rounds.  The clock
/// stops before the streams are finished.  `limit` truncates the event
/// lists (warm-up; the closing windows are then not checked).
pub fn cluster_round(
    spec: &Spec,
    sup: &mut Supervisor,
    inputs: &Inputs,
    limit: usize,
    first_key: u64,
    checker: &mut Checker,
    tr: &mut Tracer,
) -> RoundC {
    insert_streams(spec, sup, first_key);
    let mut events = inputs.round_events(limit);
    let len = inputs.len().min(limit);
    let mut round = RoundC {
        wall_s: 0.0,
        events: (len * spec.streams) as u64,
        send_us: Vec::with_capacity(len * spec.streams),
        poll_ms: Vec::new(),
        latency_us: Vec::new(),
    };
    let mut sent_ns = vec![vec![0u64; len]; spec.streams];
    let accept = |checker: &mut Checker, key: u64, steps: &[FinalizedStep]| {
        let stream = (key - first_key) as usize;
        steps.iter().for_each(|step| checker.accept(stream, step));
        stream
    };
    let start = Instant::now();
    for e in 0..len {
        for (s, stream_events) in events.iter_mut().enumerate() {
            let event = stream_events.next().expect("aligned lengths");
            let t = Instant::now();
            sent_ns[s][e] = (t - start).as_nanos() as u64;
            let open = tr.enter("cluster.send");
            sup.send(first_key + s as u64, event)
                .expect("delivery or recovery");
            tr.exit(open, NO_OP);
            round.send_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        if e % POLL_EVERY == POLL_EVERY - 1 {
            let t = Instant::now();
            tr.span("cluster.poll", NO_OP, |_| {
                sup.poll().expect("poll or recovery")
            });
            round.poll_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let delivered = start.elapsed().as_nanos() as u64;
            for (key, steps) in sup.take_outputs() {
                let stream = accept(checker, key, &steps);
                let last = steps.last().expect("take_outputs drops empty batches");
                let sent = sent_ns[stream][trigger_event(last.index, spec.lag)];
                let latency = delivered.saturating_sub(sent) as f64 / 1e3;
                round
                    .latency_us
                    .extend(std::iter::repeat_n(latency, steps.len()));
            }
        }
    }
    round.wall_s = start.elapsed().as_secs_f64();
    let whole = limit >= inputs.len();
    for s in 0..spec.streams as u64 {
        let (tail, _) = sup.finish(first_key + s).expect("solvable window");
        if whole {
            accept(checker, first_key + s, &tail);
        }
    }
    checker.failed += sup.take_stream_errors().len() as u64;
    checker.end_round(whole.then_some(inputs.steps()));
    round
}

/// The same round-paced loop through an in-process `ShardedPool`
/// (`try_submit` per event, a drain where the cluster polls); wall seconds.
pub fn inproc_round(
    spec: &Spec,
    served: &mut Served,
    inputs: &Inputs,
    checker: &mut Checker,
) -> f64 {
    served.insert_streams(spec);
    let mut events = inputs.round_events(usize::MAX);
    let len = inputs.len();
    let start = Instant::now();
    for e in 0..len {
        for (s, stream_events) in events.iter_mut().enumerate() {
            let event = stream_events.next().expect("aligned lengths");
            if served.ingress.try_submit(s as u64, event).is_err() {
                checker.failed += 1;
            }
        }
        if e % POLL_EVERY == POLL_EVERY - 1 || e == len - 1 {
            served.pool.drain();
            served.check_outputs(checker, |_, _| {});
        }
    }
    let wall = start.elapsed().as_secs_f64();
    served.finish_streams(spec, Some(checker));
    checker.end_round(Some(inputs.steps()));
    wall
}

/// Median milliseconds of five crash recoveries, each on a fresh cluster
/// part-way through the load: SIGKILL of worker 0, then the `heartbeat`
/// that detects the death and runs backoff, respawn, snapshot restore and
/// log replay.
pub fn recovery_ms(spec: &Spec, inputs: &Inputs, tr: &mut Tracer) -> f64 {
    let cycles: Vec<f64> = (0..5)
        .map(|cycle| {
            let mut sup = new_supervisor();
            insert_streams(spec, &mut sup, 0);
            let mut events = inputs.round_events(4 * spec.window());
            for e in 0..inputs.len().min(4 * spec.window()) {
                for (s, stream_events) in events.iter_mut().enumerate() {
                    let event = stream_events.next().expect("aligned lengths");
                    sup.send(s as u64, event).expect("delivery");
                }
                if e % POLL_EVERY == POLL_EVERY - 1 {
                    sup.poll().expect("poll");
                }
            }
            sup.kill_worker(0);
            let t = Instant::now();
            tr.span("cluster.recover", (0, cycle), |_| {
                sup.heartbeat().expect("recovery")
            });
            let ms = t.elapsed().as_secs_f64() * 1e3;
            sup.shutdown();
            ms
        })
        .collect();
    median(&cycles)
}
