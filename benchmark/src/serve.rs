//! The serving path: many streams through a `ShardedPool`, closed loop
//! (phase A) and open loop (phase B), every output checked against an
//! untimed direct `StreamingSmoother` replay.

use crate::gen::{self, Events, Source};
use crate::spec::{Spec, QUEUE_CAPACITY, SHARDS};
use crate::stats::{median, percentile, sort};
use crate::trace::{OpId, Tracer, NO_OP};
use futures::executor::LocalPool;
use kalman::prelude::{
    ExecPolicy, FinalizedStep, Ingress, PollBatch, ServeConfig, ShardedPool, SmootherPool,
    StreamingSmoother,
};
use std::rc::Rc;
use std::time::Instant;

/// Most events the open-loop generator hands over between two drains.
/// Below the queue bound, so a burst after a stall shows as latency and
/// can never be refused by a queue the previous drain just emptied.
const MAX_BURST: usize = 256;

/// Index, in a stream's event list, of the event whose arrival finalizes a
/// batch ending at step `last_finalized`: the `Evolve` that creates step
/// `last_finalized + lag + 1` finds the window full and triggers the flush.
/// (Event 0 observes step 0; events `2i − 1` and `2i` create and observe
/// step `i`.)
pub fn trigger_event(last_finalized: u64, lag: usize) -> usize {
    2 * (last_finalized as usize + lag + 1) - 1
}

/// Generated inputs of a serving run.
pub struct Inputs {
    /// One event source per stream; stream `s` is served under key `s`.
    pub sources: Vec<Rc<Source>>,
    /// Phase-B start offsets, as fractions of two flush periods.
    pub offsets: Vec<f64>,
}

impl Inputs {
    pub fn generate(seed: u64, spec: &Spec, steps: usize) -> Inputs {
        Inputs {
            sources: gen::stream_sources(seed, spec, steps),
            offsets: gen::start_offsets(seed, spec.streams),
        }
    }

    /// Events per stream (every stream has the same number).
    pub fn len(&self) -> usize {
        self.sources[0].len()
    }

    pub fn steps(&self) -> usize {
        self.len().div_ceil(2)
    }

    /// Every stream's first `limit` events, materialized as they are taken.
    pub fn round_events(&self, limit: usize) -> Vec<Events> {
        self.sources.iter().map(|s| Events::new(s, limit)).collect()
    }
}

/// The oracle: every stream replayed alone through an auto-flushing
/// `StreamingSmoother`, then finished.  Returns each stream's complete
/// output and the wall time of the replay loop (no per-event clock reads).
pub fn reference_replay(spec: &Spec, inputs: &Inputs) -> (Vec<Vec<FinalizedStep>>, f64) {
    let mut rounds = inputs.round_events(usize::MAX);
    let mut streams: Vec<StreamingSmoother> =
        (0..spec.streams).map(|_| gen::new_stream(spec)).collect();
    let mut outputs = vec![Vec::new(); spec.streams];
    let start = Instant::now();
    for ((stream, events), out) in streams.iter_mut().zip(&mut rounds).zip(&mut outputs) {
        for event in events {
            out.extend(stream.ingest(event).expect("generated events are valid"));
        }
    }
    let wall = start.elapsed().as_secs_f64();
    for (stream, out) in streams.into_iter().zip(&mut outputs) {
        out.extend(stream.finish().expect("solvable window").0);
    }
    (outputs, wall)
}

fn same_step(a: &FinalizedStep, b: &FinalizedStep) -> bool {
    let bits = |x: &[f64], y: &[f64]| {
        x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
    };
    a.index == b.index
        && bits(&a.mean, &b.mean)
        && match (&a.covariance, &b.covariance) {
            (None, None) => true,
            (Some(x), Some(y)) => x.rows() == y.rows() && bits(x.as_slice(), y.as_slice()),
            _ => false,
        }
}

/// Checks that a run finalizes every step exactly once, in order, bitwise
/// equal to the reference.
pub struct Checker<'a> {
    reference: &'a [Vec<FinalizedStep>],
    next: Vec<usize>,
    /// Steps that were wrong, out of order, duplicated or missing.
    pub failed: u64,
}

impl<'a> Checker<'a> {
    pub fn new(reference: &'a [Vec<FinalizedStep>]) -> Checker<'a> {
        Checker {
            reference,
            next: vec![0; reference.len()],
            failed: 0,
        }
    }

    pub fn accept(&mut self, stream: usize, step: &FinalizedStep) {
        let expected = self.reference[stream].get(self.next[stream]);
        if !expected.is_some_and(|e| same_step(e, step)) {
            self.failed += 1;
        }
        self.next[stream] = step.index as usize + 1;
    }

    /// Ends a round and rewinds.  With `steps`, every stream should have
    /// emitted exactly that many; the missing ones are counted.
    pub fn end_round(&mut self, steps: Option<usize>) {
        for next in &mut self.next {
            self.failed += steps.map_or(0, |s| s.abs_diff(*next) as u64);
            *next = 0;
        }
    }
}

/// An in-process pool and its producer handle.
pub struct Served {
    pub pool: ShardedPool,
    pub ingress: Ingress,
}

impl Served {
    pub fn new() -> Served {
        let (pool, ingress) = ShardedPool::new(ServeConfig {
            shards: SHARDS,
            queue_capacity: QUEUE_CAPACITY,
            policy: ExecPolicy::Seq,
        });
        Served { pool, ingress }
    }

    pub fn insert_streams(&mut self, spec: &Spec) {
        for key in 0..spec.streams as u64 {
            self.pool
                .insert(key, gen::new_stream(spec))
                .expect("key is free between rounds");
        }
    }

    /// Ends every stream; with `check`, their closing windows are verified.
    pub fn finish_streams(&mut self, spec: &Spec, mut check: Option<&mut Checker>) {
        for key in 0..spec.streams {
            let (tail, _) = self.pool.finish(key as u64).expect("solvable window");
            if let Some(c) = check.as_deref_mut() {
                tail.iter().for_each(|step| c.accept(key, step));
            }
        }
    }

    /// Verifies the last drain's outputs; calls `on_batch(stream, steps)`
    /// per flushed window.  Returns the first window flushed, as an op id.
    pub fn check_outputs(
        &self,
        checker: &mut Checker,
        mut on_batch: impl FnMut(usize, &[FinalizedStep]),
    ) -> OpId {
        let mut first = NO_OP;
        for (key, entry) in self.pool.outputs() {
            match entry.result() {
                Ok(steps) => {
                    steps
                        .iter()
                        .for_each(|step| checker.accept(key as usize, step));
                    on_batch(key as usize, steps);
                    if let (true, Some(s)) = (first == NO_OP, steps.first()) {
                        first = (key, s.index);
                    }
                }
                Err(_) => checker.failed += 1,
            }
        }
        checker.failed += self.pool.last_errors().count() as u64;
        first
    }
}

/// What one closed-loop round measured.
pub struct RoundA {
    pub wall_s: f64,
    pub events: u64,
    /// Seconds inside `LocalPool::run_until_stalled` (producers submitting).
    pub producers_s: f64,
    /// Duration of every `drain()`, microseconds.
    pub drains_us: Vec<f64>,
}

/// Phase A, one round: every stream's events submitted by its own
/// backpressured async producer (`Ingress::submit`) on one `LocalPool`,
/// drained to completion — the saturation loop.  The clock stops before
/// the streams are finished.  `limit` truncates every stream's event list
/// (the warm-up uses a few windows' worth and skips the closing check).
pub fn phase_a_round(
    spec: &Spec,
    served: &mut Served,
    inputs: &Inputs,
    limit: usize,
    checker: &mut Checker,
    tr: &mut Tracer,
) -> RoundA {
    served.insert_streams(spec);
    let mut tasks = LocalPool::new();
    let spawner = tasks.spawner();
    let events = (spec.streams * limit.min(inputs.len())) as u64;
    for (key, stream_events) in inputs.round_events(limit).into_iter().enumerate() {
        let mut tx = served.ingress.clone();
        spawner.spawn_local(async move {
            for event in stream_events {
                tx.submit(key as u64, event)
                    .await
                    .expect("pool outlives producers");
                futures::future::yield_now().await;
            }
        });
    }
    let mut round = RoundA {
        wall_s: 0.0,
        events,
        producers_s: 0.0,
        drains_us: Vec::new(),
    };
    let start = Instant::now();
    loop {
        let t = Instant::now();
        tr.span("serve.producers", NO_OP, |_| tasks.run_until_stalled());
        round.producers_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let open = tr.enter("serve.drain");
        let summary = served.pool.drain();
        round.drains_us.push(t.elapsed().as_secs_f64() * 1e6);
        let verify = tr.enter("bench.verify");
        let first = served.check_outputs(checker, |_, _| {});
        tr.exit(verify, first);
        tr.exit(open, first);
        if tasks.is_empty() && summary.ops == 0 {
            break;
        }
    }
    round.wall_s = start.elapsed().as_secs_f64();
    let whole = limit >= inputs.len();
    served.finish_streams(spec, whole.then_some(&mut *checker));
    checker.end_round(whole.then_some(inputs.steps()));
    round
}

/// What one open-loop round measured.
pub struct RoundB {
    /// Finalize latency of every finalized step, microseconds, ascending.
    pub latency_us: Vec<f64>,
    /// How late the generator handed over each event, microseconds.
    pub lag_us: Vec<f64>,
    pub events: u64,
    /// `try_submit` refusals (each a failed op).
    pub refused: u64,
}

impl RoundB {
    pub fn p50(&self) -> f64 {
        percentile(&self.latency_us, 0.50)
    }

    pub fn p99(&self) -> f64 {
        percentile(&self.latency_us, 0.99)
    }

    /// Mean generator lag over the last 1 % of events: a backlog that grew
    /// during the round ends it far behind schedule.
    pub fn end_lag_us(&self) -> f64 {
        let tail = &self.lag_us[self.lag_us.len() - (self.lag_us.len() / 100).max(1)..];
        tail.iter().sum::<f64>() / tail.len() as f64
    }
}

/// Phase B, one round: `rate_eps` events per second over all streams,
/// each stream on its own fixed period from a seeded start offset, so the
/// streams' flushes are spread over time.  One thread alternates handing
/// over the events that are due (`try_submit` only) and draining; the
/// schedule never waits for the pool.  A finalized step's latency runs
/// from the *due* time of the event that triggered its flush to the return
/// of the drain that emitted it.
pub fn phase_b_round(
    spec: &Spec,
    rate_eps: f64,
    served: &mut Served,
    inputs: &Inputs,
    checker: &mut Checker,
    tr: &mut Tracer,
) -> RoundB {
    let period = spec.period_ns(rate_eps);
    let offset: Vec<f64> = inputs
        .offsets
        .iter()
        .map(|f| f * 2.0 * spec.flush_every as f64 * period)
        .collect();
    let due = |stream: usize, event: usize| (offset[stream] + event as f64 * period) as u64;
    let mut schedule: Vec<(u64, u32)> = (0..spec.streams)
        .flat_map(|s| (0..inputs.len()).map(move |e| (s, e)))
        .map(|(s, e)| (due(s, e), s as u32))
        .collect();
    schedule.sort_unstable();

    served.insert_streams(spec);
    let mut events = inputs.round_events(usize::MAX);
    let mut round = RoundB {
        latency_us: Vec::with_capacity(spec.streams * inputs.steps()),
        lag_us: Vec::with_capacity(schedule.len()),
        events: schedule.len() as u64,
        refused: 0,
    };
    let mut next = 0;
    let start = Instant::now();
    let elapsed_ns = || start.elapsed().as_nanos() as u64;
    while next < schedule.len() {
        let now = elapsed_ns();
        if schedule[next].0 > now {
            std::hint::spin_loop();
            continue;
        }
        let burst_end = (next + MAX_BURST).min(schedule.len());
        let open = tr.enter("serve.try_submit");
        while next < burst_end && schedule[next].0 <= now {
            let (due_ns, stream) = schedule[next];
            let event = events[stream as usize].next().expect("one event per slot");
            if served.ingress.try_submit(u64::from(stream), event).is_err() {
                round.refused += 1;
            }
            round.lag_us.push((now - due_ns) as f64 / 1e3);
            next += 1;
        }
        tr.exit(open, NO_OP);
        let open = tr.enter("serve.drain");
        served.pool.drain();
        let emitted = elapsed_ns();
        let verify = tr.enter("bench.verify");
        let first = served.check_outputs(checker, |stream, steps| {
            if let Some(last) = steps.last() {
                let trigger = due(stream, trigger_event(last.index, spec.lag));
                let latency = emitted.saturating_sub(trigger) as f64 / 1e3;
                round
                    .latency_us
                    .extend(std::iter::repeat_n(latency, steps.len()));
            }
        });
        tr.exit(verify, first);
        tr.exit(open, first);
    }
    served.finish_streams(spec, Some(checker));
    checker.end_round(Some(inputs.steps()));
    sort(&mut round.latency_us);
    round
}

/// What timing the direct replay event by event showed.
pub struct StreamProbe {
    pub ingest_ns: f64,
    pub flush_us: f64,
    pub flush_share: f64,
    pub plan_builds: u64,
}

/// `stream`: every stream replayed alone with the clock read around each
/// flush-triggering `ingest` (one span per flush, with the stream key and
/// the window's base index) and around each run of buffering-only ingests
/// between two flushes.
pub fn stream_probe(spec: &Spec, inputs: &Inputs, tr: &mut Tracer) -> StreamProbe {
    let (mut flush_us, mut ingest_ns) = (Vec::new(), Vec::new());
    let (mut flush_total, mut ingest_total, mut plan_builds) = (0.0, 0.0, 0);
    for (key, events) in inputs.round_events(usize::MAX).into_iter().enumerate() {
        let mut stream = gen::new_stream(spec);
        let mut run_start = Instant::now();
        let mut run_len = 0;
        for (e, event) in events.enumerate() {
            if e % 2 == 1 && stream.ready() {
                let buffered = run_start.elapsed().as_secs_f64();
                ingest_ns.push(buffered * 1e9 / f64::from(run_len.max(1)));
                ingest_total += buffered;
                let t = Instant::now();
                let open = tr.enter("stream.flush");
                let out = stream.ingest(event).expect("valid event");
                tr.exit(open, (key as u64, out.first().map_or(0, |s| s.index)));
                let dt = t.elapsed().as_secs_f64();
                flush_us.push(dt * 1e6);
                flush_total += dt;
                (run_start, run_len) = (Instant::now(), 0);
            } else {
                stream.ingest(event).expect("valid event");
                run_len += 1;
            }
        }
        plan_builds += stream.plan_builds();
    }
    StreamProbe {
        ingest_ns: median(&ingest_ns),
        flush_us: median(&flush_us),
        flush_share: flush_total / (flush_total + ingest_total),
        plan_builds,
    }
}

/// The same events through one `SmootherPool` driven on the canonical
/// cadence: all streams advance one event at a time, and every stream that
/// is full when its next `Evolve` arrives is flushed in one `poll_into`.
/// Returns the loop's wall seconds (outputs are checked like any other).
pub fn pool_replay(spec: &Spec, inputs: &Inputs, checker: &mut Checker) -> f64 {
    let mut pool = SmootherPool::new(ExecPolicy::Seq);
    let ids: Vec<_> = (0..spec.streams)
        .map(|_| pool.insert(gen::new_stream(spec)))
        .collect();
    let mut events = inputs.round_events(usize::MAX);
    let mut batch = PollBatch::new();
    let start = Instant::now();
    for e in 0..inputs.len() {
        // Streams are index-aligned: when the next event is an `Evolve`,
        // either all of them are full or none is.
        if pool.ready_len() > 0 && e % 2 == 1 {
            pool.poll_into(&mut batch);
            for entry in batch.entries() {
                let stream = ids
                    .iter()
                    .position(|id| *id == entry.id())
                    .expect("own stream");
                for step in entry.result().expect("solvable window") {
                    checker.accept(stream, step);
                }
            }
        }
        for (id, stream_events) in ids.iter().zip(&mut events) {
            pool.ingest(*id, stream_events.next().expect("aligned lengths"))
                .expect("valid event");
        }
    }
    let wall = start.elapsed().as_secs_f64();
    for (stream, id) in ids.iter().enumerate() {
        for step in &pool.finish(*id).expect("solvable window").0 {
            checker.accept(stream, step);
        }
    }
    checker.end_round(Some(inputs.steps()));
    wall
}

/// `obs`: the direct replay of the first streams with the observability
/// runtime switch on over off, interleaved, as a ratio of medians.
pub fn obs_overhead_ratio(spec: &Spec, inputs: &Inputs) -> f64 {
    let few = Inputs {
        sources: inputs.sources[..spec.streams.min(8)].to_vec(),
        offsets: Vec::new(),
    };
    let few_spec = Spec {
        streams: few.sources.len(),
        ..*spec
    };
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        kalman::obs::set_enabled(false);
        off.push(reference_replay(&few_spec, &few).1);
        kalman::obs::set_enabled(true);
        on.push(reference_replay(&few_spec, &few).1);
    }
    median(&on) / median(&off)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Kind;

    fn toy() -> Spec {
        Spec {
            name: "toy",
            kind: Kind::Serve,
            n: 2,
            batch_k: 0,
            streams: 3,
            lag: 3,
            flush_every: 2,
            covariances: true,
            rate_eps: 50_000.0,
            reference_clock: true,
        }
    }

    #[test]
    fn finalized_index_maps_to_the_event_that_triggered_it() {
        let spec = toy();
        let inputs = Inputs::generate(9, &spec, 17);
        for events in inputs.round_events(usize::MAX) {
            let mut stream = gen::new_stream(&spec);
            let mut batches = 0;
            for (e, event) in events.enumerate() {
                let out = stream.ingest(event).unwrap();
                if let Some(last) = out.last() {
                    assert_eq!(trigger_event(last.index, spec.lag), e);
                    assert_eq!(out.len(), spec.flush_every);
                    batches += 1;
                }
            }
            assert_eq!(batches, (17 - spec.window()).div_ceil(spec.flush_every));
        }
    }

    #[test]
    fn both_phases_and_the_pool_replay_reproduce_the_reference_bitwise() {
        let spec = toy();
        let inputs = Inputs::generate(4, &spec, 40);
        let (reference, _) = reference_replay(&spec, &inputs);
        assert!(reference.iter().all(|r| r.len() == 40));
        let mut checker = Checker::new(&reference);
        let mut served = Served::new();
        let mut tr = Tracer::new(true);
        let whole = usize::MAX;
        let a = phase_a_round(&spec, &mut served, &inputs, whole, &mut checker, &mut tr);
        assert_eq!(a.events as usize, 3 * inputs.len());
        let b = phase_b_round(
            &spec,
            spec.rate_eps,
            &mut served,
            &inputs,
            &mut checker,
            &mut tr,
        );
        assert_eq!(b.refused, 0);
        assert_eq!(b.lag_us.len(), 3 * inputs.len());
        // Steps still inside the lag window at the end come from finish().
        assert_eq!(b.latency_us.len(), 3 * (40 - spec.window()).div_ceil(2) * 2);
        pool_replay(&spec, &inputs, &mut checker);
        phase_a_round(&spec, &mut served, &inputs, 12, &mut checker, &mut tr);
        assert_eq!(checker.failed, 0);
        assert!(tr.totals()["serve.drain"].0 > 0);
    }

    #[test]
    fn checker_counts_wrong_duplicate_and_missing_steps() {
        let spec = toy();
        let inputs = Inputs::generate(4, &spec, 12);
        let (reference, _) = reference_replay(&spec, &inputs);
        let mut checker = Checker::new(&reference);
        checker.accept(0, &reference[0][0]);
        checker.accept(0, &reference[0][0]); // duplicate
        checker.accept(1, &reference[0][0]); // another stream's step
        assert_eq!(checker.failed, 2);
        checker.end_round(Some(12)); // 11 + 11 + 12 steps never arrived
        assert_eq!(checker.failed, 2 + 34);
    }

    #[test]
    fn stream_probe_sees_one_plan_per_stream_and_flush_dominates() {
        let spec = toy();
        let inputs = Inputs::generate(4, &spec, 60);
        let mut tr = Tracer::new(true);
        let p = stream_probe(&spec, &inputs, &mut tr);
        assert_eq!(p.plan_builds, 3);
        assert!(p.flush_share > 0.5 && p.flush_share < 1.0);
        assert!(p.flush_us * 1e3 > p.ingest_ns);
        assert_eq!(
            tr.totals()["stream.flush"].0 as usize,
            3 * (60 - spec.window()).div_ceil(2)
        );
    }
}
