//! Counting-allocator proof that the streaming smoother's steady-state hot
//! loop is allocation-free.
//!
//! The umbrella crate's global allocator (the vendored `tikv-jemallocator`
//! stand-in) counts every heap allocation per thread.  This test drives a
//! `StreamingSmoother` at a fixed cadence with pre-built events, lets the
//! workspace pool and the stream's reused storage warm up, and then asserts
//! that entire evolve→observe→flush cycles — including the forward
//! elimination, back substitution, SelInv, forgetting, and emission —
//! perform **zero** heap allocations.

use kalman::alloc_stats::thread_alloc_count;
use kalman::dense::Matrix;
use kalman::prelude::*;
use kalman::stream::FinalizedStep;
use std::sync::Mutex;

/// The pooling toggle is process-global, so the tests in this file must not
/// interleave (the harness runs tests on multiple threads by default).
static EXCLUSIVE: Mutex<()> = Mutex::new(());

/// Restores the pooling flag on drop, so a panicking test cannot leave the
/// process-global toggle in the wrong state for its siblings.
struct PoolingGuard(bool);

impl PoolingGuard {
    fn set(enabled: bool) -> Self {
        let prior = kalman::dense::pooling_enabled();
        kalman::dense::set_pooling(enabled);
        PoolingGuard(prior)
    }
}

impl Drop for PoolingGuard {
    fn drop(&mut self) {
        kalman::dense::set_pooling(self.0);
    }
}

/// Pre-builds `cycles` windows' worth of ingestion events so event
/// construction never pollutes the measured region.
#[allow(clippy::type_complexity)]
fn build_events(n: usize, cycles: usize, per_cycle: usize) -> Vec<(Evolution, Observation)> {
    let mut events = Vec::with_capacity(cycles * per_cycle);
    for i in 0..cycles * per_cycle {
        let evo = Evolution::random_walk(n);
        let obs = Observation {
            g: Matrix::identity(n),
            o: (0..n).map(|c| ((i * n + c) as f64 * 0.1).sin()).collect(),
            noise: CovarianceSpec::Identity(n),
        };
        events.push((evo, obs));
    }
    events
}

fn run_steady_state(covariances: bool) {
    let _guard = EXCLUSIVE.lock().unwrap_or_else(|p| p.into_inner());
    let n = 4;
    let lag = 6;
    let flush_every = 4;
    let opts = StreamOptions {
        lag,
        flush_every,
        covariances,
        policy: ExecPolicy::Seq,
        auto_flush: false,
        ..StreamOptions::default()
    };
    let mut stream =
        StreamingSmoother::with_prior(vec![0.0; n], CovarianceSpec::Identity(n), opts).unwrap();
    stream
        .observe(Observation {
            g: Matrix::identity(n),
            o: vec![0.0; n],
            noise: CovarianceSpec::Identity(n),
        })
        .unwrap();

    const WARMUP: usize = 6;
    const MEASURED: usize = 8;
    let events = build_events(n, WARMUP + MEASURED + 1, flush_every);
    let mut events = events.into_iter();
    let mut out: Vec<FinalizedStep> = Vec::new();

    // Warmup: fill the window to one cycle short of capacity (the buffer
    // already holds the initial state), then run full flush cycles so every
    // pool and scratch container reaches its steady-state capacity.
    for _ in 0..lag - 1 {
        let (evo, obs) = events.next().unwrap();
        stream.evolve(evo).unwrap();
        stream.observe(obs).unwrap();
    }
    for _ in 0..WARMUP - 1 {
        for _ in 0..flush_every {
            let (evo, obs) = events.next().unwrap();
            stream.evolve(evo).unwrap();
            stream.observe(obs).unwrap();
        }
        let emitted = stream.flush_into(&mut out).unwrap();
        assert_eq!(emitted, flush_every);
    }

    // Measured steady state: every complete cycle must allocate nothing.
    for cycle in 0..MEASURED {
        let mut batch: Vec<(Evolution, Observation)> = Vec::with_capacity(flush_every);
        for _ in 0..flush_every {
            batch.push(events.next().unwrap());
        }
        let before = thread_alloc_count();
        for (evo, obs) in batch.drain(..) {
            stream.evolve(evo).unwrap();
            stream.observe(obs).unwrap();
        }
        let emitted = stream.flush_into(&mut out).unwrap();
        let allocs = thread_alloc_count() - before;
        assert_eq!(emitted, flush_every);
        if allocs > 0 {
            // Aid debugging regressions: sizes of the offending allocations.
            eprintln!(
                "cycle {cycle}: recent allocation sizes {:?}",
                kalman::alloc_stats::thread_recent_alloc_sizes()
            );
        }
        assert_eq!(
            allocs, 0,
            "cycle {cycle} (covariances={covariances}): {allocs} heap allocations in a \
             steady-state evolve/observe/flush cycle"
        );
    }

    // Sanity: the estimates coming out of the allocation-free path agree
    // with a fresh batch-style read of the window.
    let est = stream.smoothed().unwrap();
    assert_eq!(est.len(), stream.buffered_len());
}

#[test]
fn streaming_flush_is_allocation_free_after_warmup() {
    run_steady_state(false);
}

#[test]
fn streaming_flush_with_covariances_is_allocation_free_after_warmup() {
    run_steady_state(true);
}

/// Batch-scale plan reuse: a `SmoothPlan` built once for a `k = 20 000`
/// problem must re-solve same-shaped models with **zero** steady-state
/// heap allocations.  Without the plan-owned arena this workload was the
/// ROADMAP's allocator-pressure case — the elimination's working set
/// (~3 blocks per step held in the `R` factor alone) blows far past the
/// thread-local workspace budgets, so every re-solve used to hammer the
/// allocator; the plan lifts the budgets while it executes and the pool
/// sizes itself to the recursion.
#[test]
fn batch_plan_reuse_is_allocation_free_after_warmup() {
    use kalman::odd_even::SmoothPlan;
    use rand::SeedableRng;

    let _guard = EXCLUSIVE.lock().unwrap_or_else(|p| p.into_inner());
    let k = 20_000;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(4300);
    let model = kalman::model::generators::paper_benchmark(&mut rng, 4, k, true);
    let opts = OddEvenOptions {
        covariances: true,
        policy: ExecPolicy::Seq,
        compress_odd: true,
    };
    let mut plan = SmoothPlan::for_model(&model, opts).unwrap();
    let mut out = Smoothed {
        means: Vec::new(),
        covariances: None,
    };
    // Warmup: the first solve sizes every container and fills the arena;
    // one more catches stragglers (buffers held live across call N enter
    // the pool only during call N+1).
    for _ in 0..2 {
        plan.smooth_model_into(&model, &mut out).unwrap();
    }
    for round in 0..2 {
        let before = thread_alloc_count();
        plan.smooth_model_into(&model, &mut out).unwrap();
        let allocs = thread_alloc_count() - before;
        if allocs > 0 {
            eprintln!(
                "round {round}: recent allocation sizes {:?}",
                kalman::alloc_stats::thread_recent_alloc_sizes()
            );
        }
        assert_eq!(
            allocs, 0,
            "round {round}: {allocs} heap allocations in a plan-reused k={k} batch solve"
        );
    }
    assert_eq!(out.means.len(), k + 1);
    assert!(out.covariances.as_ref().unwrap().len() == k + 1);
}

/// The same contract above the level-3 thresholds: at n = 48 every
/// elimination runs the compact-WY tri-stack and SelInv the tile GEMM, the
/// blocked solves and the blocked inverse-Gram, whose panels, packed
/// operands and block copies are pooled scratch
/// (`workspace::take_f64` / `put_f64`) — a re-solve must still allocate
/// nothing once warm.
#[test]
fn large_block_plan_reuse_is_allocation_free_after_warmup() {
    use kalman::odd_even::SmoothPlan;
    use rand::SeedableRng;

    let _guard = EXCLUSIVE.lock().unwrap_or_else(|p| p.into_inner());
    let (n, k) = (48, 60);
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(4301);
    let model = kalman::model::generators::paper_benchmark(&mut rng, n, k, true);
    let opts = OddEvenOptions {
        covariances: true,
        policy: ExecPolicy::Seq,
        compress_odd: true,
    };
    let mut plan = SmoothPlan::for_model(&model, opts).unwrap();
    let mut out = Smoothed {
        means: Vec::new(),
        covariances: None,
    };
    for _ in 0..2 {
        plan.smooth_model_into(&model, &mut out).unwrap();
    }
    for round in 0..2 {
        let before = thread_alloc_count();
        plan.smooth_model_into(&model, &mut out).unwrap();
        let allocs = thread_alloc_count() - before;
        assert_eq!(
            allocs,
            0,
            "round {round}: {allocs} heap allocations in a plan-reused n={n} solve, sizes {:?}",
            kalman::alloc_stats::thread_recent_alloc_sizes()
        );
    }
    assert_eq!(out.means.len(), k + 1);
}

/// Steady-state pool serving: ingestion plus a `poll_into` batch flush
/// across several streams must allocate nothing once warm — the pool moves
/// streams into reused output slots and every stream's flush reuses the
/// storage its first flush sized.
#[test]
fn pool_poll_into_is_allocation_free_after_warmup() {
    let _guard = EXCLUSIVE.lock().unwrap_or_else(|p| p.into_inner());
    let n = 3;
    let streams = 4;
    let flush_every = 4;
    let opts = StreamOptions {
        lag: 6,
        flush_every,
        covariances: false,
        policy: ExecPolicy::Seq,
        auto_flush: false,
        ..StreamOptions::default()
    };
    let mut pool = SmootherPool::new(ExecPolicy::Seq);
    let ids: Vec<StreamId> = (0..streams)
        .map(|_| {
            pool.insert(
                StreamingSmoother::with_prior(vec![0.0; n], CovarianceSpec::Identity(n), opts)
                    .unwrap(),
            )
        })
        .collect();

    const WARMUP: usize = 6;
    const MEASURED: usize = 6;
    let mut events: Vec<_> = (0..streams)
        .map(|_| build_events(n, WARMUP + MEASURED + 3, flush_every).into_iter())
        .collect();
    let mut batch = kalman::stream::PollBatch::new();

    // Fill every window to one cycle short, then run warmup cycles.
    for (k, id) in ids.iter().enumerate() {
        for _ in 0..opts.lag - 1 {
            let (evo, obs) = events[k].next().unwrap();
            pool.evolve(*id, evo).unwrap();
            pool.observe(*id, obs).unwrap();
        }
    }
    let cycle = |pool: &mut SmootherPool,
                 events: &mut Vec<std::vec::IntoIter<(Evolution, Observation)>>,
                 batch: &mut kalman::stream::PollBatch| {
        for (k, id) in ids.iter().enumerate() {
            for _ in 0..flush_every {
                let (evo, obs) = events[k].next().unwrap();
                pool.evolve(*id, evo).unwrap();
                pool.observe(*id, obs).unwrap();
            }
        }
        pool.poll_into(batch);
        assert_eq!(batch.len(), ids.len(), "every stream flushes each cycle");
        for entry in batch.entries() {
            assert_eq!(entry.result().unwrap().len(), flush_every);
        }
    };
    for _ in 0..WARMUP {
        cycle(&mut pool, &mut events, &mut batch);
    }

    // Measured steady state: ingestion + batched flush, zero allocations.
    for round in 0..MEASURED {
        // Pre-draw the events so iterator plumbing stays out of the
        // measured region (the events themselves were pre-built).
        let before = thread_alloc_count();
        cycle(&mut pool, &mut events, &mut batch);
        let allocs = thread_alloc_count() - before;
        if allocs > 0 {
            eprintln!(
                "round {round}: recent allocation sizes {:?}",
                kalman::alloc_stats::thread_recent_alloc_sizes()
            );
        }
        assert_eq!(
            allocs, 0,
            "round {round}: {allocs} heap allocations in a steady-state pool cycle"
        );
    }
}

/// Saturation: 64 async producers against an 8-shard serving pool under
/// bounded queues.  Producers overrun the consumer and are paced purely by
/// channel backpressure (`submit().await` parks them); the consumer
/// alternates executor ticks with `drain`.  Three properties are pinned at
/// once:
///
/// 1. the system reaches a steady state in which an entire drain — queue
///    pops, event application, batched flushes across all 8 shards,
///    producer wake-ups — performs **zero** heap allocations;
/// 2. memory stays bounded: queue depths never exceed the configured
///    capacity and producers really were throttled;
/// 3. the saturated sharded output is **bitwise identical** to one
///    unsharded `SmootherPool` fed the same per-stream event sequences —
///    the serving layer's canonical flush cadence makes results
///    independent of how drains and backpressure sliced the event flow.
///
/// Everything runs on one thread (the vendored single-threaded executor),
/// which is what makes the per-thread allocation counter authoritative.
#[test]
fn saturated_sharded_serving_is_allocation_free_and_matches_unsharded() {
    use futures::executor::LocalPool;
    use kalman::model::StreamEvent;
    use kalman::serve::{ServeConfig, ShardedPool};

    let _guard = EXCLUSIVE.lock().unwrap_or_else(|p| p.into_inner());
    const PRODUCERS: usize = 64;
    const SHARDS: usize = 8;
    const STEPS: usize = 150;
    let n = 2;
    let opts = StreamOptions {
        lag: 6,
        flush_every: 4,
        covariances: false,
        policy: ExecPolicy::Seq,
        auto_flush: false,
        ..StreamOptions::default()
    };

    // Pre-built per-stream event sequences (producers move events out of
    // these, so event construction stays out of the serving loop).
    let event_lists: Vec<Vec<StreamEvent>> = (0..PRODUCERS)
        .map(|k| {
            let mut events = Vec::with_capacity(2 * STEPS - 1);
            for i in 0..STEPS {
                if i > 0 {
                    events.push(StreamEvent::Evolve(Evolution::random_walk(n)));
                }
                events.push(StreamEvent::Observe(Observation {
                    g: Matrix::identity(n),
                    o: (0..n)
                        .map(|c| ((k * STEPS * n + i * n + c) as f64 * 0.05).sin())
                        .collect(),
                    noise: CovarianceSpec::Identity(n),
                }));
            }
            events
        })
        .collect();

    let cfg = ServeConfig {
        shards: SHARDS,
        queue_capacity: 8,
        policy: ExecPolicy::Seq,
    };
    let (mut pool, ingress) = ShardedPool::new(cfg);
    for key in 0..PRODUCERS as u64 {
        pool.insert(
            key,
            StreamingSmoother::with_prior(vec![0.0; n], CovarianceSpec::Identity(n), opts).unwrap(),
        )
        .unwrap();
    }

    let mut tasks = LocalPool::new();
    let spawner = tasks.spawner();
    for (k, events) in event_lists.iter().enumerate() {
        let mut tx = ingress.clone();
        let events = events.clone();
        spawner.spawn_local(async move {
            for event in events {
                tx.submit(k as u64, event).await.unwrap();
                // Cooperative politeness: without the yield, the first
                // producer to run would refill every slot its shard's
                // drain frees before any parked peer gets the CPU.
                futures::future::yield_now().await;
            }
        });
    }
    drop(ingress);

    // The serving loop: executor tick (producers fill queues up to the
    // bound), then one measured drain, then result collection.
    let mut alloc_log: Vec<u64> = Vec::new();
    let mut collected: Vec<Vec<FinalizedStep>> = vec![Vec::new(); PRODUCERS];
    let mut max_depth = 0usize;
    loop {
        tasks.run_until_stalled();
        // Queues are at their fullest right before the drain: the bound
        // must hold even now (and saturation should actually reach it).
        let stats = pool.stats();
        for s in &stats.shards {
            assert!(
                s.queue_depth <= s.queue_capacity,
                "queue depth {} exceeded capacity {}",
                s.queue_depth,
                s.queue_capacity
            );
            max_depth = max_depth.max(s.queue_depth);
        }
        // Debugging aid for regressions: set TRAP_SIZE=<bytes> to get a
        // backtrace for the first allocation of that size inside a drain.
        kalman::alloc_stats::trap_next_alloc_of_size(
            std::env::var("TRAP_SIZE")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(0),
        );
        let before = thread_alloc_count();
        let summary = pool.drain();
        let allocs = thread_alloc_count() - before;
        kalman::alloc_stats::trap_next_alloc_of_size(0);
        alloc_log.push(allocs);
        for (key, entry) in pool.outputs() {
            collected[key as usize].extend(entry.result().unwrap().iter().cloned());
        }
        if tasks.is_empty() && summary.ops == 0 {
            break;
        }
    }

    // The zero-allocation claim below is made *with the observability
    // subsystem live* (unless this binary was built with `obs-off`):
    // every drain recorded spans, queue-wait stamps, and histogram
    // samples, and still allocated nothing.
    let stats = pool.stats();
    if kalman::obs::enabled() {
        let agg = stats.aggregate();
        assert_eq!(
            agg.queue_wait.count, agg.drained,
            "instrumentation was live: every drained op carried a stamp"
        );
        assert!(
            stats.drain_latency.count as usize >= alloc_log.len(),
            "every measured drain recorded into the drain-latency histogram"
        );
    }

    // Backpressure engaged: producers outran the queues and were parked.
    let agg = pool.stats().aggregate();
    assert!(
        agg.throttled > 0,
        "64 producers against 8-deep queues must have been throttled"
    );
    assert_eq!(max_depth, 8, "saturation fills queues to their bound");
    assert_eq!(agg.ingest_errors, 0);
    assert_eq!(agg.flush_errors, 0);
    assert_eq!(
        agg.submitted as usize,
        PRODUCERS * (2 * STEPS - 1),
        "every event was delivered despite throttling"
    );

    // Steady state is allocation-free.  The first drains warm everything
    // (per-stream window plans, channel waker lists, the executor run
    // queue, output batch slots); from then on — through saturation AND
    // the wind-down, because the canonical cadence keeps window shapes
    // fixed — every drain must allocate nothing.
    // Warmup horizon: the fill phase (one event per stream per drain,
    // ~2·(lag+flush_every) drains), the first flush wave, and one more
    // flush round for stragglers (containers whose buffers go back to the
    // workspace pool only on the next cycle).
    let warmup = 3 * 2 * (opts.lag + opts.flush_every);
    assert!(alloc_log.len() > warmup + 60, "run long enough to measure");
    let measured = &alloc_log[warmup..];
    assert!(
        measured.len() >= 10,
        "want a meaningful steady-state band, got {} drains total",
        alloc_log.len()
    );
    for (i, &allocs) in measured.iter().enumerate() {
        if allocs > 0 {
            eprintln!("alloc log: {alloc_log:?}");
            eprintln!(
                "drain {}: recent allocation sizes {:?}",
                warmup + i,
                kalman::alloc_stats::thread_recent_alloc_sizes()
            );
        }
        assert_eq!(
            allocs,
            0,
            "drain {} (of {}): {} heap allocations in a steady-state saturated drain",
            warmup + i,
            alloc_log.len(),
            allocs
        );
    }

    // Bitwise reference: an unsharded SmootherPool fed the same
    // per-stream event sequences on the canonical cadence (flush exactly
    // when an evolve arrives on a full window, via the selective poll).
    // The saturated sharded run must match it bitwise, steps and tails.
    let mut reference = SmootherPool::new(ExecPolicy::Seq);
    let ids: Vec<StreamId> = (0..PRODUCERS)
        .map(|_| {
            reference.insert(
                StreamingSmoother::with_prior(vec![0.0; n], CovarianceSpec::Identity(n), opts)
                    .unwrap(),
            )
        })
        .collect();
    let mut batch = kalman::stream::PollBatch::new();
    for (k, id) in ids.iter().enumerate() {
        let mut ref_steps: Vec<FinalizedStep> = Vec::new();
        for event in &event_lists[k] {
            if matches!(event, StreamEvent::Evolve(_))
                && reference.stream(*id).is_some_and(|s| s.ready())
            {
                reference.poll_into_where(&mut batch, |x| x == *id);
                for entry in batch.entries() {
                    ref_steps.extend(entry.result().unwrap().iter().cloned());
                }
            }
            reference.ingest(*id, event.clone()).unwrap();
        }
        assert_eq!(
            ref_steps.len(),
            collected[k].len(),
            "stream {k}: flushed step count"
        );
        for (a, b) in ref_steps.iter().zip(&collected[k]) {
            assert_eq!(a.index, b.index, "stream {k}");
            assert_eq!(
                a.mean, b.mean,
                "stream {k}, state {}: saturated sharded serving and the \
                 unsharded pool must be bitwise equal",
                a.index
            );
        }
        let (ref_tail, _) = reference.finish(*id).unwrap();
        let (tail, _) = pool.finish(k as u64).unwrap();
        assert_eq!(ref_tail.len(), tail.len(), "stream {k}: tail length");
        for (a, b) in ref_tail.iter().zip(&tail) {
            assert_eq!(a.index, b.index);
            assert_eq!(a.mean, b.mean, "stream {k} finish tail");
        }
    }
}

/// Open-loop sharded serving, one event per drain: after warm-up every
/// whole drain — the queue pop, the event, the flush an evolve triggers,
/// the touched-stream set and the batch that eliminates the drain's new
/// forward steps — allocates nothing.
#[test]
fn open_loop_sharded_drains_are_allocation_free() {
    use kalman::model::StreamEvent;
    use kalman::serve::{ServeConfig, ShardedPool};

    let _guard = EXCLUSIVE.lock().unwrap_or_else(|p| p.into_inner());
    const STREAMS: usize = 8;
    const STEPS: usize = 90;
    let n = 8;
    let opts = StreamOptions {
        lag: 8,
        flush_every: 4,
        covariances: true,
        policy: ExecPolicy::Seq,
        auto_flush: false,
        ..StreamOptions::default()
    };
    let (mut pool, mut ingress) = ShardedPool::new(ServeConfig {
        shards: 2,
        queue_capacity: 4,
        policy: ExecPolicy::Seq,
    });
    let mut events: Vec<std::vec::IntoIter<StreamEvent>> = Vec::new();
    for key in 0..STREAMS {
        pool.insert(
            key as u64,
            StreamingSmoother::with_prior(vec![0.0; n], CovarianceSpec::Identity(n), opts).unwrap(),
        )
        .unwrap();
        let list: Vec<StreamEvent> = build_events(n, STEPS, 1)
            .into_iter()
            .enumerate()
            .flat_map(|(i, (evo, obs))| {
                let evolve = (i > 0).then_some(StreamEvent::Evolve(evo));
                evolve.into_iter().chain([StreamEvent::Observe(obs)])
            })
            .collect();
        events.push(list.into_iter());
    }
    // Round robin, one event per drain; stream `k` starts `k` rounds late,
    // so flushes fall in different drains.
    let mut alloc_log = Vec::new();
    let (mut flushed, mut eliminated) = (0, 0);
    for round in 0..2 * STEPS + STREAMS {
        for (key, list) in events.iter_mut().enumerate() {
            if round < key {
                continue;
            }
            let Some(event) = list.next() else { continue };
            let evolve = matches!(event, StreamEvent::Evolve(_));
            ingress.try_submit(key as u64, event).unwrap();
            let before = thread_alloc_count();
            let summary = pool.drain();
            alloc_log.push(thread_alloc_count() - before);
            assert_eq!(summary.errors, 0);
            flushed += summary.flushed_steps;
            let stream = pool.stream(key as u64).unwrap();
            assert_eq!(stream.eliminated_len(), stream.buffered_len() - 1);
            eliminated += usize::from(evolve);
        }
    }
    assert!(flushed >= STREAMS * (STEPS - 2 * (opts.lag + opts.flush_every)));
    assert_eq!(eliminated, STREAMS * (STEPS - 1));
    // Warm-up: every stream's first windows fill and flush three times
    // (window storage, spare slots, output slots, the staging slot and the
    // touched set reach their high-water marks).
    let warmup = STREAMS * 2 * (opts.lag + 3 * opts.flush_every);
    let measured = &alloc_log[warmup..];
    assert!(measured.len() >= 400, "{} drains measured", measured.len());
    for (i, &allocs) in measured.iter().enumerate() {
        assert_eq!(
            allocs,
            0,
            "drain {}: {allocs} heap allocations in a steady-state open-loop drain",
            warmup + i
        );
    }
}

/// Workspace checkouts (`hits + misses` of the calling thread's pool) of
/// one steady flush of an n = 8 covariance stream that finalizes
/// `flush_every` steps per flush.
fn checkouts_per_flush(flush_every: usize) -> u64 {
    let n = 8;
    let opts = StreamOptions {
        lag: 6,
        flush_every,
        covariances: true,
        policy: ExecPolicy::Seq,
        auto_flush: false,
        ..StreamOptions::default()
    };
    let mut stream =
        StreamingSmoother::with_prior(vec![0.0; n], CovarianceSpec::Identity(n), opts).unwrap();
    let mut events = build_events(n, 12, flush_every).into_iter();
    let mut out = Vec::new();
    let mut cycle = |stream: &mut StreamingSmoother, steps: usize| {
        for _ in 0..steps {
            let (evo, obs) = events.next().unwrap();
            stream.evolve(evo).unwrap();
            stream.observe(obs).unwrap();
        }
        stream.flush_into(&mut out).unwrap()
    };
    cycle(&mut stream, opts.lag - 1);
    for _ in 0..6 {
        assert_eq!(cycle(&mut stream, flush_every), flush_every);
    }
    let checkouts = || {
        let stats = kalman::dense::Workspace::with(|ws| ws.stats());
        stats.hits + stats.misses
    };
    let before = checkouts();
    assert_eq!(cycle(&mut stream, flush_every), flush_every);
    checkouts() - before
}

/// A forward step on the fixed-size path writes into a retired slot's
/// matrices and whitens into the ring's scratch, so what a flush takes from
/// the workspace pool does not grow with the number of steps it
/// eliminates: only the newest head's covariance is still built as pooled
/// matrices, once per flush.
#[test]
fn fixed_size_flush_checks_out_a_constant_number_of_buffers() {
    let _guard = EXCLUSIVE.lock().unwrap_or_else(|p| p.into_inner());
    if kalman::dense::reference_kernels() {
        return; // the general bodies run, and they build every block pooled
    }
    let (short, long) = (checkouts_per_flush(2), checkouts_per_flush(8));
    assert_eq!(short, long, "checkouts must not scale with flush_every");
    assert!(short <= 4, "{short} checkouts in one steady flush");
}

/// The pooled allocator really is what makes the loop allocation-free:
/// with pooling disabled the same cycle allocates (guards against the
/// counter silently measuring nothing).  At n = 3 — a dimension with no
/// fixed-size body, where every forward step still builds its blocks as
/// pooled matrices; at n = 4 an unpooled steady flush allocates nothing
/// either, because it takes nothing from the pool.
#[test]
fn disabling_the_workspace_pool_restores_allocations() {
    let _guard = EXCLUSIVE.lock().unwrap_or_else(|p| p.into_inner());
    let n = 3;
    let opts = StreamOptions {
        lag: 6,
        flush_every: 4,
        covariances: false,
        policy: ExecPolicy::Seq,
        auto_flush: false,
        ..StreamOptions::default()
    };
    let mut stream =
        StreamingSmoother::with_prior(vec![0.0; n], CovarianceSpec::Identity(n), opts).unwrap();
    let events = build_events(n, 8, 4);
    let mut events = events.into_iter();
    let mut out = Vec::new();
    for _ in 0..5 {
        let (evo, obs) = events.next().unwrap();
        stream.evolve(evo).unwrap();
        stream.observe(obs).unwrap();
    }
    for _ in 0..3 {
        for _ in 0..4 {
            let (evo, obs) = events.next().unwrap();
            stream.evolve(evo).unwrap();
            stream.observe(obs).unwrap();
        }
        stream.flush_into(&mut out).unwrap();
    }

    let _pooling = PoolingGuard::set(false);
    let mut batch = Vec::new();
    for _ in 0..4 {
        batch.push(events.next().unwrap());
    }
    let before = thread_alloc_count();
    for (evo, obs) in batch.drain(..) {
        stream.evolve(evo).unwrap();
        stream.observe(obs).unwrap();
    }
    stream.flush_into(&mut out).unwrap();
    let allocs = thread_alloc_count() - before;
    // Four forward steps, each through the general bodies: the stacked
    // observation rows and their QR (vstack × 2, tau, R, the kept rhs) and
    // the six blocks the tri-stack elimination works on — at least ten
    // matrices a step that nothing recycles (49 in all when this was set).
    assert!(
        allocs >= 40,
        "expected the unpooled flush to allocate heavily, saw {allocs}"
    );
}
