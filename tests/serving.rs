//! Integration tests of the sharded serving front-end (`kalman-serve`):
//! sharding transparency (bitwise), finish → restore migration, and
//! bounded-queue backpressure.

use kalman::dense::Matrix;
use kalman::model::{events_of, generators, InfoHead, LinearModel, StreamEvent};
use kalman::prelude::*;
use kalman::serve::{ServeConfig, ShardedPool};
use kalman::stream::FinalizedStep;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn serve_opts() -> StreamOptions {
    StreamOptions {
        lag: 8,
        lag_policy: None,
        flush_every: 4,
        covariances: false,
        policy: ExecPolicy::Seq,
        auto_flush: false,
        ..StreamOptions::default()
    }
}

fn test_models(count: usize, steps: usize) -> Vec<LinearModel> {
    let mut rng = ChaCha8Rng::seed_from_u64(1105);
    (0..count)
        .map(|_| generators::paper_benchmark(&mut rng, 2, steps, true))
        .collect()
}

fn insert_model_stream(pool: &mut ShardedPool, key: u64, model: &LinearModel) {
    let p = model.prior.as_ref().unwrap();
    pool.insert(
        key,
        StreamingSmoother::with_prior(p.mean.clone(), p.cov.clone(), serve_opts()).unwrap(),
    )
    .unwrap();
}

/// Round-paced serving through a `ShardedPool`: one full step per stream
/// per round, drained every round.  Returns each stream's finalized steps.
fn run_sharded(models: &[LinearModel], shards: usize) -> Vec<Vec<FinalizedStep>> {
    let cfg = ServeConfig {
        shards,
        queue_capacity: 4 * models.len().max(1),
        policy: ExecPolicy::Seq,
    };
    let (mut pool, mut ingress) = ShardedPool::new(cfg);
    for (k, model) in models.iter().enumerate() {
        insert_model_stream(&mut pool, k as u64, model);
    }
    let mut collected: Vec<Vec<FinalizedStep>> = vec![Vec::new(); models.len()];
    let rounds = models.iter().map(|m| m.num_states()).max().unwrap();
    for si in 0..rounds {
        for (k, model) in models.iter().enumerate() {
            let Some(step) = model.steps.get(si) else {
                continue;
            };
            if si > 0 {
                ingress
                    .try_evolve(k as u64, step.evolution.clone().unwrap())
                    .unwrap();
            }
            if let Some(obs) = &step.observation {
                ingress.try_observe(k as u64, obs.clone()).unwrap();
            }
        }
        pool.drain();
        for (key, entry) in pool.outputs() {
            collected[key as usize].extend(entry.result().unwrap().iter().cloned());
        }
    }
    for (k, _) in models.iter().enumerate() {
        let (tail, _) = pool.finish(k as u64).unwrap();
        collected[k].extend(tail);
    }
    assert!(pool.is_empty());
    collected
}

/// The same workload through one unsharded `SmootherPool` at the same
/// cadence — the reference the sharded results must match bitwise.
fn run_unsharded(models: &[LinearModel]) -> Vec<Vec<FinalizedStep>> {
    let mut pool = SmootherPool::new(ExecPolicy::Seq);
    let ids: Vec<StreamId> = models
        .iter()
        .map(|m| {
            let p = m.prior.as_ref().unwrap();
            pool.insert(
                StreamingSmoother::with_prior(p.mean.clone(), p.cov.clone(), serve_opts()).unwrap(),
            )
        })
        .collect();
    let mut collected: Vec<Vec<FinalizedStep>> = vec![Vec::new(); models.len()];
    let rounds = models.iter().map(|m| m.num_states()).max().unwrap();
    for si in 0..rounds {
        for (k, model) in models.iter().enumerate() {
            let Some(step) = model.steps.get(si) else {
                continue;
            };
            if si > 0 {
                pool.evolve(ids[k], step.evolution.clone().unwrap())
                    .unwrap();
            }
            if let Some(obs) = &step.observation {
                pool.observe(ids[k], obs.clone()).unwrap();
            }
        }
        for (id, steps) in pool.poll() {
            let k = ids.iter().position(|x| *x == id).unwrap();
            collected[k].extend(steps.unwrap());
        }
    }
    for (k, id) in ids.iter().enumerate() {
        let (tail, _) = pool.finish(*id).unwrap();
        collected[k].extend(tail);
    }
    collected
}

fn assert_bitwise_equal(got: &[Vec<FinalizedStep>], want: &[Vec<FinalizedStep>], label: &str) {
    assert_eq!(got.len(), want.len());
    for (k, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.len(), w.len(), "{label}: stream {k} step count");
        for (a, b) in g.iter().zip(w) {
            assert_eq!(a.index, b.index, "{label}: stream {k}");
            assert_eq!(
                a.mean, b.mean,
                "{label}: stream {k} state {} means must be bitwise equal",
                a.index
            );
        }
    }
}

/// Sharding must be invisible in the numbers: per-stream results are
/// bitwise identical to one unsharded `SmootherPool` for shard counts
/// 1, 2, and 8.
#[test]
fn sharded_results_are_bitwise_equal_to_unsharded_pool() {
    let models = test_models(10, 70);
    let reference = run_unsharded(&models);
    for shards in [1usize, 2, 8] {
        let sharded = run_sharded(&models, shards);
        assert_bitwise_equal(&sharded, &reference, &format!("{shards} shards"));
    }
}

/// Finish → restore migration: a stream rebalanced between shards
/// mid-serve finalizes every step exactly once, keeps matching the
/// unmigrated reference after migration (up to the geometric hindsight
/// tail the finish contract allows), and keeps receiving events through its
/// home-shard queue afterwards.
#[test]
fn rebalanced_stream_continues_equivalently() {
    let steps = 80usize;
    let migrate_at = 37usize;
    let model = &test_models(1, steps)[0];
    let reference = &run_sharded(std::slice::from_ref(model), 1)[0];

    let cfg = ServeConfig {
        shards: 4,
        queue_capacity: 64,
        policy: ExecPolicy::Seq,
    };
    let (mut pool, mut ingress) = ShardedPool::new(cfg);
    insert_model_stream(&mut pool, 0, model);
    let home = pool.home_shard(0);
    assert_eq!(pool.shard_of(0), Some(home));

    let mut collected = Vec::new();
    let mut pre_migration = 0usize;
    for si in 0..=steps {
        let step = &model.steps[si];
        if si > 0 {
            ingress
                .try_evolve(0, step.evolution.clone().unwrap())
                .unwrap();
        }
        if let Some(obs) = &step.observation {
            ingress.try_observe(0, obs.clone()).unwrap();
        }
        pool.drain();
        for (key, entry) in pool.outputs() {
            assert_eq!(key, 0);
            collected.extend(entry.result().unwrap().iter().cloned());
        }
        if si == migrate_at {
            let target = (home + 1) % 4;
            // Steps already flushed had identical windows in both runs.
            pre_migration = collected.len();
            // The migration tail is finalized early (finish contract).
            let tail = pool.rebalance(0, target).unwrap();
            assert!(!tail.is_empty(), "migration finalizes the open window");
            collected.extend(tail);
            assert_eq!(pool.shard_of(0), Some(target));
            assert_eq!(pool.home_shard(0), home, "home hash never changes");
        }
    }
    let (tail, ckpt) = pool.finish(0).unwrap();
    collected.extend(tail);
    assert_eq!(ckpt.index, steps as u64);

    // Every step exactly once, in order.
    assert_eq!(collected.len(), steps + 1);
    for (i, f) in collected.iter().enumerate() {
        assert_eq!(f.index, i as u64);
    }
    // Steps flushed before the migration had identical windows — bitwise
    // equal.  The migration tail and later steps were condensed with
    // different hindsight; the difference decays geometrically through the
    // ≥ lag-step gap (same bound as the finish/restore pin).
    for (i, (f, r)) in collected.iter().zip(reference).enumerate() {
        assert_eq!(f.index, r.index);
        let diff = f
            .mean
            .iter()
            .zip(&r.mean)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        if i < pre_migration {
            assert_eq!(f.mean, r.mean, "pre-migration state {}", f.index);
        } else if (f.index as usize) > migrate_at {
            // States finalized after the restore carry the full lag of
            // hindsight again; they differ from the uninterrupted run only
            // through the head's shorter condensation horizon, which
            // contracts ≈ 0.38/step across the ≥ 8-step lag gap
            // (0.38^8 ≈ 4e-4) — same bound family as the finish pin.
            assert!(diff < 2e-3, "state {}: diff {diff}", f.index);
        }
        // The migration tail itself (pre_migration ≤ i ≤ migrate_at) was
        // finalized with hindsight truncated at the migration horizon —
        // exactly a `finish()` tail; its agreement with the full-hindsight
        // reference is governed by the lag choice, not by migration
        // correctness, so only its indices are pinned here.
    }
}

/// A finished stream's snapshot round-trips through its head's matrix
/// parts.
#[test]
fn checkpoint_parts_round_trip() {
    let model = &test_models(1, 30)[0];
    let p = model.prior.as_ref().unwrap();
    let mut stream =
        StreamingSmoother::with_prior(p.mean.clone(), p.cov.clone(), serve_opts()).unwrap();
    for e in events_of(model) {
        stream.ingest(e).unwrap();
    }
    let (_, ckpt) = stream.finish().unwrap();
    let state_dim = ckpt.state_dim();
    let finished = |index, c, d| WindowSnapshot {
        index,
        head: InfoHead::from_rows(c, d),
        base_emitted: true,
        events: Vec::new(),
    };
    let (c, d) = ckpt.head.clone().into_rows();
    let rebuilt = finished(ckpt.index, c, d);
    assert_eq!(rebuilt.index, ckpt.index);
    assert_eq!(rebuilt.state_dim(), state_dim);

    // Malformed transport input errors instead of panicking.
    for (c, d) in [
        (Matrix::identity(3), Matrix::identity(2)),
        (Matrix::zeros(2, 0), Matrix::zeros(2, 1)),
    ] {
        assert!(StreamingSmoother::restore(finished(0, c, d), serve_opts()).is_err());
    }

    // Restoring the rebuilt snapshot behaves identically.
    let mut a = StreamingSmoother::restore(ckpt, serve_opts()).unwrap();
    let mut b = StreamingSmoother::restore(rebuilt, serve_opts()).unwrap();
    for i in 0..20u64 {
        a.evolve(Evolution::random_walk(2)).unwrap();
        b.evolve(Evolution::random_walk(2)).unwrap();
        let obs = Observation {
            g: Matrix::identity(2),
            o: vec![(i as f64 * 0.3).sin(), 0.1],
            noise: CovarianceSpec::Identity(2),
        };
        a.observe(obs.clone()).unwrap();
        b.observe(obs).unwrap();
    }
    let (ta, _) = a.finish().unwrap();
    let (tb, _) = b.finish().unwrap();
    assert_eq!(ta.len(), tb.len());
    for (x, y) in ta.iter().zip(&tb) {
        assert_eq!(x.mean, y.mean);
    }
}

/// Producer overload against a slow consumer: the bounded queue rejects
/// instead of growing, the rejection count is visible in the stats, and a
/// polite producer (drain-on-reject) still delivers everything.
#[test]
fn backpressure_bounds_queue_memory_under_overload() {
    let cap = 8usize;
    let cfg = ServeConfig {
        shards: 2,
        queue_capacity: cap,
        policy: ExecPolicy::Seq,
    };
    let (mut pool, mut ingress) = ShardedPool::new(cfg);
    pool.insert(
        3,
        StreamingSmoother::with_prior(vec![0.0], CovarianceSpec::Identity(1), serve_opts())
            .unwrap(),
    )
    .unwrap();

    let steps = 200u64;
    let mut rejected = 0u64;
    let mut finalized = 0usize;
    for i in 0..steps {
        let mut events: Vec<StreamEvent> = Vec::new();
        if i > 0 {
            events.push(StreamEvent::Evolve(Evolution::random_walk(1)));
        }
        events.push(StreamEvent::Observe(Observation {
            g: Matrix::identity(1),
            o: vec![(i as f64 * 0.17).sin()],
            noise: CovarianceSpec::Identity(1),
        }));
        for event in events {
            // An impolite producer: hammer try_submit, yielding to the
            // consumer only when bounced.  The bounced event comes back in
            // the error and is retried verbatim.
            let mut pending = event;
            loop {
                match ingress.try_submit(3, pending) {
                    Ok(()) => break,
                    Err(e) if e.is_would_block() => {
                        rejected += 1;
                        // Queue depth is pinned at the bound, never beyond.
                        let stats = pool.stats();
                        let shard = &stats.shards[pool.home_shard(3)];
                        assert_eq!(shard.queue_depth, cap);
                        finalized += pool.drain().flushed_steps;
                        pending = e.into_event();
                    }
                    Err(e) => panic!("unexpected submit error: {e}"),
                }
            }
        }
    }
    assert!(
        rejected > 0,
        "a {cap}-deep queue fed {steps} steps with rare drains must throttle"
    );
    // Drain the leftovers and close the stream: nothing was lost.
    pool.drain();
    finalized += pool
        .outputs()
        .map(|(_, e)| e.result().unwrap().len())
        .sum::<usize>();
    let (tail, _) = pool.finish(3).unwrap();
    finalized += tail.len();
    assert_eq!(finalized as u64, steps, "every step finalized exactly once");

    let stats = pool.stats().aggregate();
    assert_eq!(stats.throttled, rejected, "stats count every bounce");
    assert_eq!(stats.queue_depth, 0, "everything drained");
    assert_eq!(stats.submitted, stats.drained);
    assert_eq!(stats.ingest_errors, 0);
}

/// Mutating the stream set invalidates pending outputs: a new stream that
/// reuses a finished stream's pool slot must never be attributed the old
/// stream's flush results.
#[test]
fn outputs_are_invalidated_when_the_stream_set_changes() {
    let cfg = ServeConfig {
        shards: 1,
        queue_capacity: 64,
        policy: ExecPolicy::Seq,
    };
    let (mut pool, mut ingress) = ShardedPool::new(cfg);
    pool.insert(
        1,
        StreamingSmoother::with_prior(vec![0.0], CovarianceSpec::Identity(1), serve_opts())
            .unwrap(),
    )
    .unwrap();
    for i in 0..14u64 {
        if i > 0 {
            ingress.try_evolve(1, Evolution::random_walk(1)).unwrap();
        }
        ingress
            .try_observe(
                1,
                Observation {
                    g: Matrix::identity(1),
                    o: vec![i as f64],
                    noise: CovarianceSpec::Identity(1),
                },
            )
            .unwrap();
    }
    pool.drain();
    assert!(pool.outputs().next().is_some(), "stream 1 flushed");
    // Remove stream 1 and register stream 2, which reuses the freed slot.
    pool.finish(1).unwrap();
    pool.insert(2, StreamingSmoother::new(1, serve_opts()).unwrap())
        .unwrap();
    assert_eq!(
        pool.outputs().count(),
        0,
        "stale entries must not be attributed to the slot's new occupant"
    );
}

/// Unknown keys, duplicate keys, and bad shard indices are surfaced as
/// errors without disturbing healthy streams; the stable hash really is
/// stable.
#[test]
fn serving_error_paths_and_stable_hash() {
    use kalman::serve::stable_shard;

    // Stable hash: deterministic, in range, and not constant.
    for shards in [1usize, 2, 8, 13] {
        let spread: std::collections::HashSet<usize> =
            (0..64u64).map(|k| stable_shard(k, shards)).collect();
        assert!(spread.iter().all(|&s| s < shards));
        if shards > 1 {
            assert!(spread.len() > 1, "{shards} shards: hash collapsed");
        }
        for k in 0..64u64 {
            assert_eq!(stable_shard(k, shards), stable_shard(k, shards));
        }
    }

    let cfg = ServeConfig {
        shards: 2,
        queue_capacity: 16,
        policy: ExecPolicy::Seq,
    };
    let (mut pool, mut ingress) = ShardedPool::new(cfg);
    pool.insert(
        1,
        StreamingSmoother::with_prior(vec![0.0], CovarianceSpec::Identity(1), serve_opts())
            .unwrap(),
    )
    .unwrap();
    // Duplicate key.
    assert!(pool
        .insert(1, StreamingSmoother::new(1, serve_opts()).unwrap())
        .is_err());
    // Event for an unregistered key: applied ops report the error, the
    // registered stream is untouched.
    ingress
        .try_observe(
            99,
            Observation {
                g: Matrix::identity(1),
                o: vec![1.0],
                noise: CovarianceSpec::Identity(1),
            },
        )
        .unwrap();
    let summary = pool.drain();
    assert_eq!(summary.errors, 1);
    let errs: Vec<_> = pool.last_errors().collect();
    assert_eq!(errs.len(), 1);
    assert_eq!(errs[0].0, 99);
    // Error lists reset on the next drain.
    pool.drain();
    assert_eq!(pool.last_errors().count(), 0);
    // Rebalance errors.
    assert!(pool.rebalance(1, 7).is_err(), "shard out of range");
    assert!(pool.rebalance(42, 0).is_err(), "unknown key");
    // Unknown finish.
    assert!(pool.finish(42).is_err());
    // Dropping the pool closes ingestion.
    drop(pool);
    let err = ingress
        .try_observe(
            1,
            Observation {
                g: Matrix::identity(1),
                o: vec![1.0],
                noise: CovarianceSpec::Identity(1),
            },
        )
        .unwrap_err();
    assert!(err.is_closed());
}

/// One stream's flush outcome in one drain: the drain's number and the
/// finalized steps, or the flush's error.
type Flushed = (usize, std::result::Result<Vec<FinalizedStep>, KalmanError>);

fn assert_same_flushes(got: &[Flushed], want: &[Flushed], label: &str) {
    assert_eq!(got.len(), want.len(), "{label}: flush count");
    for ((dg, g), (dw, w)) in got.iter().zip(want) {
        assert_eq!(dg, dw, "{label}: flush drains");
        match (g, w) {
            (Ok(g), Ok(w)) => {
                assert_eq!(g.len(), w.len(), "{label}: drain {dg}");
                for (a, b) in g.iter().zip(w) {
                    let same = a.index == b.index
                        && a.mean
                            .iter()
                            .map(|x| x.to_bits())
                            .eq(b.mean.iter().map(|x| x.to_bits()))
                        && match (&a.covariance, &b.covariance) {
                            (None, None) => true,
                            (Some(x), Some(y)) => (x.as_slice().iter().map(|v| v.to_bits()))
                                .eq(y.as_slice().iter().map(|v| v.to_bits())),
                            _ => false,
                        };
                    assert!(
                        same,
                        "{label}: drain {dg} state {} not bitwise equal",
                        a.index
                    );
                }
            }
            (Err(g), Err(w)) => assert_eq!(g, w, "{label}: drain {dg}"),
            _ => panic!("{label}: drain {dg}: {g:?} against {w:?}"),
        }
    }
}

/// Open-loop serving, one event per drain: every drain leaves each stream
/// with all but its newest step eliminated — the forward steps of an
/// evolve run before the drain that applied it returns — and that moves
/// no bit.  Every flush outcome, and every closing window, is bitwise what
/// one unsharded `SmootherPool` (which eliminates inside its flushes)
/// emits at the same cadence.  An underdetermined stream in the same pool
/// reports `RankDeficient` in the same drains, at the same index, as a
/// standalone stream fed the same events.
#[test]
fn open_loop_drains_leave_no_forward_step_pending() {
    for (n, covariances) in [(4, false), (8, true)] {
        let opts = StreamOptions {
            covariances,
            ..serve_opts()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(4242);
        let mut models: Vec<LinearModel> = (0..5)
            .map(|_| generators::paper_benchmark(&mut rng, n, 50, true))
            .collect();
        // No prior and its first 14 steps unobserved: the flushes of its
        // first windows cannot be solved.
        let mut starved = generators::paper_benchmark(&mut rng, n, 50, false);
        for step in &mut starved.steps[..14] {
            step.observation = None;
        }
        models.push(starved);
        let new_stream = |model: &LinearModel| {
            match &model.prior {
                Some(p) => StreamingSmoother::with_prior(p.mean.clone(), p.cov.clone(), opts),
                None => StreamingSmoother::new(n, opts),
            }
            .unwrap()
        };
        // Stream `s` starts `s` ticks late, so the streams' flushes fall in
        // different drains.
        let events: Vec<Vec<StreamEvent>> = models.iter().map(events_of).collect();
        let ticks = events[0].len() + models.len();
        let schedule: Vec<(usize, usize)> = (0..ticks)
            .flat_map(|t| (0..models.len()).map(move |s| (s, t.wrapping_sub(s))))
            .filter(|&(s, e)| e < events[s].len())
            .collect();

        // The reference: one unsharded pool, flushing a stream when an
        // evolve arrives on its full window, and a standalone stream for
        // the starved one, flushed at the same moments.
        let mut reference = SmootherPool::new(ExecPolicy::Seq);
        let ids: Vec<StreamId> = models
            .iter()
            .map(|m| reference.insert(new_stream(m)))
            .collect();
        let mut alone = new_stream(&models[5]);
        let mut want: Vec<Vec<Flushed>> = vec![Vec::new(); models.len()];
        let mut alone_flushes: Vec<Flushed> = Vec::new();
        let mut batch = PollBatch::new();
        for (drain, &(s, e)) in schedule.iter().enumerate() {
            let event = events[s][e].clone();
            let evolve = matches!(event, StreamEvent::Evolve(_));
            if evolve && reference.stream(ids[s]).unwrap().ready() {
                reference.poll_into_where(&mut batch, |id| id == ids[s]);
                for entry in batch.entries() {
                    let result = entry.result().map(<[FinalizedStep]>::to_vec);
                    want[s].push((drain, result));
                }
            }
            if s == 5 {
                if evolve && alone.ready() {
                    alone_flushes.push((drain, alone.flush()));
                }
                assert!(alone.ingest(event.clone()).unwrap().is_empty());
            }
            reference.ingest(ids[s], event).unwrap();
        }
        let starved_errors = alone_flushes.iter().filter(|(_, r)| r.is_err()).count();
        assert!(
            starved_errors > 0,
            "n = {n}: the starved stream must fail its first flushes"
        );
        assert!(
            matches!(alone_flushes[0].1, Err(KalmanError::RankDeficient { .. })),
            "n = {n}: {:?}",
            alone_flushes[0].1
        );
        assert_same_flushes(&want[5], &alone_flushes, &format!("n = {n} standalone"));
        let want_tails: Vec<Vec<FinalizedStep>> = ids
            .iter()
            .map(|id| reference.finish(*id).unwrap().0)
            .collect();

        for shards in [1, 2] {
            for policy in [ExecPolicy::Seq, ExecPolicy::par_with_grain(1)] {
                let label = format!("n = {n}, {shards} shard(s), {policy:?}");
                let cfg = ServeConfig {
                    shards,
                    queue_capacity: 4,
                    policy,
                };
                let (mut pool, mut ingress) = ShardedPool::new(cfg);
                for (k, model) in models.iter().enumerate() {
                    pool.insert(k as u64, new_stream(model)).unwrap();
                }
                let mut got: Vec<Vec<Flushed>> = vec![Vec::new(); models.len()];
                for (drain, &(s, e)) in schedule.iter().enumerate() {
                    ingress.try_submit(s as u64, events[s][e].clone()).unwrap();
                    pool.drain();
                    for (key, entry) in pool.outputs() {
                        let result = entry.result().map(<[FinalizedStep]>::to_vec);
                        got[key as usize].push((drain, result));
                    }
                    for k in 0..models.len() as u64 {
                        let stream = pool.stream(k).unwrap();
                        assert_eq!(
                            stream.eliminated_len(),
                            stream.buffered_len() - 1,
                            "{label}: stream {k} after drain {drain}"
                        );
                    }
                }
                for (k, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert_same_flushes(g, w, &format!("{label}: stream {k}"));
                }
                // The drains' eliminations sized each healthy window once,
                // for its full length, not one slot at a time.
                for k in 0..5 {
                    let builds = pool.stream(k).unwrap().plan_builds();
                    assert_eq!(builds, 1, "{label}: stream {k}");
                }
                let tails: Vec<Vec<FinalizedStep>> = (0..models.len() as u64)
                    .map(|k| pool.finish(k).unwrap().0)
                    .collect();
                assert_bitwise_equal(&tails, &want_tails, &label);
            }
        }
    }
}
