//! Integration tests of cross-process serving (`kalman-cluster`): the
//! supervisor's output must be **bitwise identical** to in-process
//! serving — for any worker count and under every injected failure
//! (kill -9 mid-load, corrupt frames, severed connections, withheld
//! snapshot acks, exhausted crash budgets).
//!
//! The deterministic [`FaultPlan`] scripts each failure at an exact
//! point in the event sequence, so these tests pin exact recovery
//! behavior instead of sampling luck.

use kalman::cluster::{
    ClusterConfig, ClusterError, FaultPlan, FrameFault, StreamInit, StreamSpec, Supervisor,
};
use kalman::model::{generators, LinearModel};
use kalman::prelude::*;
use kalman::serve::{ServeConfig, ShardedPool};
use kalman::stream::FinalizedStep;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Duration;

/// Worker entry point: the supervisor re-execs this test binary with
/// `cluster_worker_entry --exact` and the socket environment variable
/// set, which turns this "test" into the worker main loop (it never
/// returns; it exits the process).  In a normal test sweep the variable
/// is unset and this is an instant no-op pass.
#[test]
fn cluster_worker_entry() {
    kalman::cluster::worker_entry_from_env();
}

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
    let mut rng = ChaCha8Rng::seed_from_u64(2207);
    (0..count)
        .map(|_| generators::paper_benchmark(&mut rng, 2, steps, true))
        .collect()
}

fn spec_for(model: &LinearModel) -> StreamSpec {
    let p = model.prior.as_ref().unwrap();
    StreamSpec {
        init: StreamInit::WithPrior {
            mean: p.mean.clone(),
            cov: p.cov.clone(),
        },
        opts: serve_opts(),
    }
}

fn cluster_cfg(workers: usize, models: usize, plan: FaultPlan) -> ClusterConfig {
    ClusterConfig {
        workers,
        queue_capacity: 4 * models.max(1),
        checkpoint_every: 16,
        // Fast restarts keep the suite quick; the backoff unit test pins
        // the exponential shape.
        backoff_base: Duration::from_millis(2),
        backoff_max: Duration::from_millis(20),
        fault_plan: plan,
        ..ClusterConfig::default()
    }
}

/// The reference: the same round-paced workload through the in-process
/// `ShardedPool` (whose own shard-count transparency is pinned by
/// `tests/serving.rs`).
fn run_inprocess(models: &[LinearModel]) -> Vec<Vec<FinalizedStep>> {
    let (mut pool, mut ingress) = ShardedPool::new(ServeConfig {
        shards: 1,
        queue_capacity: 4 * models.len().max(1),
        policy: ExecPolicy::Seq,
    });
    for (k, model) in models.iter().enumerate() {
        let p = model.prior.as_ref().unwrap();
        pool.insert(
            k as u64,
            StreamingSmoother::with_prior(p.mean.clone(), p.cov.clone(), serve_opts()).unwrap(),
        )
        .unwrap();
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
    collected
}

/// The same workload through a supervised worker cluster, with faults.
/// Returns per-stream outputs and the final health stats.
fn run_cluster(
    models: &[LinearModel],
    workers: usize,
    plan: FaultPlan,
    tweak: impl FnOnce(&mut ClusterConfig),
) -> (Vec<Vec<FinalizedStep>>, kalman::cluster::ClusterStats) {
    let mut cfg = cluster_cfg(workers, models.len(), plan);
    tweak(&mut cfg);
    let mut sup = Supervisor::new(cfg).unwrap();
    for (k, model) in models.iter().enumerate() {
        sup.insert(k as u64, spec_for(model)).unwrap();
    }
    let mut collected: Vec<Vec<FinalizedStep>> = vec![Vec::new(); models.len()];
    let rounds = models.iter().map(|m| m.num_states()).max().unwrap();
    for si in 0..rounds {
        for (k, model) in models.iter().enumerate() {
            let Some(step) = model.steps.get(si) else {
                continue;
            };
            if si > 0 {
                sup.evolve(k as u64, step.evolution.clone().unwrap())
                    .unwrap();
            }
            if let Some(obs) = &step.observation {
                sup.observe(k as u64, obs.clone()).unwrap();
            }
        }
        sup.poll().unwrap();
        for (key, steps) in sup.take_outputs() {
            collected[key as usize].extend(steps);
        }
    }
    for (k, _) in models.iter().enumerate() {
        let (tail, ckpt) = sup.finish(k as u64).unwrap();
        assert_eq!(
            ckpt.index,
            (models[k].num_states() - 1) as u64,
            "stream {k}: checkpoint closes at the last state"
        );
        collected[k].extend(tail);
    }
    assert!(
        sup.take_stream_errors().is_empty(),
        "healthy workload must not produce stream errors"
    );
    let stats = sup.stats();
    sup.shutdown();
    (collected, stats)
}

fn assert_bitwise_equal(got: &[Vec<FinalizedStep>], want: &[Vec<FinalizedStep>], label: &str) {
    assert_eq!(got.len(), want.len());
    for (k, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.len(), w.len(), "{label}: stream {k} step count");
        for (a, b) in g.iter().zip(w) {
            assert_eq!(a.index, b.index, "{label}: stream {k} ordering");
            assert_eq!(
                a.mean, b.mean,
                "{label}: stream {k} state {} means must be bitwise equal",
                a.index
            );
        }
    }
}

/// Process boundaries must be invisible in the numbers: 1, 2, and 8
/// worker processes all produce bitwise the in-process results.
#[test]
fn cluster_results_are_bitwise_equal_to_in_process() {
    let models = test_models(6, 60);
    let reference = run_inprocess(&models);
    for workers in [1usize, 2, 8] {
        let (got, stats) = run_cluster(&models, workers, FaultPlan::none(), |_| {});
        assert_bitwise_equal(&got, &reference, &format!("{workers} workers"));
        assert!(
            stats.restarts.iter().all(|&r| r == 0),
            "healthy run must not restart workers"
        );
        assert!(stats.degraded.iter().all(|&d| !d));
    }
}

/// kill -9 mid-load: the dead worker restarts from its last acked
/// snapshot, replays the logged suffix, and every finalized step is
/// delivered exactly once — bitwise equal to the undisturbed run.
#[test]
fn killed_worker_recovers_bitwise_exactly_once() {
    let models = test_models(6, 60);
    let reference = run_inprocess(&models);
    for workers in [1usize, 2] {
        // One kill early (before the first snapshot can cover much) and
        // one late (forcing restore + short replay).
        let plan = FaultPlan {
            kill_after_events: vec![(0, 9), (0, 150)],
            ..FaultPlan::default()
        };
        let (got, stats) = run_cluster(&models, workers, plan, |_| {});
        assert_bitwise_equal(&got, &reference, &format!("{workers} workers, killed"));
        assert_eq!(stats.restarts[0], 2, "both scripted kills were recovered");
        assert!(!stats.degraded[0], "budget not exhausted");
        if workers > 1 {
            assert_eq!(stats.restarts[1], 0, "other shards undisturbed");
        }
    }
}

/// A corrupted outbound frame kills the worker (it must detect BadCrc
/// and exit, never process garbage); the supervisor recovers that slot
/// and the other slot keeps serving undisturbed throughout.
#[test]
fn corrupt_frame_recovers_and_other_shards_keep_serving() {
    let models = test_models(6, 60);
    let reference = run_inprocess(&models);
    let plan = FaultPlan {
        // Frame 1 is the config; corrupt a frame well into the event flow.
        frame_faults: vec![(0, 40, FrameFault::Corrupt)],
        ..FaultPlan::default()
    };
    let (got, stats) = run_cluster(&models, 2, plan, |_| {});
    assert_bitwise_equal(&got, &reference, "corrupt frame");
    assert!(stats.restarts[0] >= 1, "corruption forced a restart");
    assert_eq!(stats.restarts[1], 0, "healthy shard never restarted");
    assert!(!stats.degraded.iter().any(|&d| d));
}

/// A connection severed mid-frame (truncated write) is detected on the
/// spot and recovered by replay — nothing lost, nothing duplicated.
#[test]
fn truncated_frame_mid_connection_recovers() {
    let models = test_models(6, 60);
    let reference = run_inprocess(&models);
    let plan = FaultPlan {
        frame_faults: vec![(0, 25, FrameFault::Truncate)],
        ..FaultPlan::default()
    };
    let (got, stats) = run_cluster(&models, 2, plan, |_| {});
    assert_bitwise_equal(&got, &reference, "truncated frame");
    assert!(stats.restarts[0] >= 1);
    assert_eq!(stats.restarts[1], 0);
}

/// Withheld snapshot acks leave the write-ahead log untruncated, so a
/// later crash replays the entire history — still bitwise exact.
#[test]
fn delayed_acks_force_full_replay_still_exact() {
    let models = test_models(4, 50);
    let reference = run_inprocess(&models);
    let plan = FaultPlan {
        delay_acks: vec![(0, u32::MAX)],
        kill_after_events: vec![(0, 120)],
        ..FaultPlan::default()
    };
    let (got, stats) = run_cluster(&models, 1, plan, |_| {});
    assert_bitwise_equal(&got, &reference, "delayed acks");
    assert_eq!(stats.restarts[0], 1);
}

/// Crash budget exhaustion: the slot degrades to an in-process shard
/// rebuilt from snapshots + log — service continues, queued events are
/// not dropped, and the outputs stay bitwise exact.
#[test]
fn budget_exhaustion_degrades_without_data_loss() {
    let models = test_models(4, 50);
    let reference = run_inprocess(&models);
    let plan = FaultPlan {
        kill_after_events: vec![(0, 60)],
        ..FaultPlan::default()
    };
    let (got, stats) = run_cluster(&models, 1, plan, |cfg| {
        cfg.crash_budget = 0; // first crash exhausts the budget
    });
    assert_bitwise_equal(&got, &reference, "degraded slot");
    assert!(stats.degraded[0], "slot must be serving in-process");
    assert_eq!(stats.wal_depth[0], 0, "degraded slot keeps no log");
}

/// Recovery paths emit observability: restart counters tick and the
/// journal records the death, the restart, and the replay.
#[test]
fn recovery_is_observable() {
    let models = test_models(3, 40);
    let restarts_before = kalman::obs::counter("cluster.restarts").get();
    let plan = FaultPlan {
        kill_after_events: vec![(0, 30)],
        ..FaultPlan::default()
    };
    let (_, stats) = run_cluster(&models, 1, plan, |_| {});
    assert_eq!(stats.restarts[0], 1);
    assert!(
        kalman::obs::counter("cluster.restarts").get() > restarts_before,
        "restart counter must tick"
    );
    // Journal events are instrumentation, compiled out under obs-off
    // (the counters above are part of the stats contract and always on).
    if kalman::obs::enabled() {
        let kinds: Vec<&'static str> = kalman::obs::journal_events()
            .into_iter()
            .map(|e| e.kind)
            .collect();
        for kind in [
            "cluster.worker_spawn",
            "cluster.worker_dead",
            "cluster.restart",
            "cluster.replay",
        ] {
            assert!(
                kinds.contains(&kind),
                "journal must record {kind}; saw {kinds:?}"
            );
        }
    }
}

/// Supervisor-level error paths are typed: unknown keys, duplicate
/// keys, and degenerate configs.
#[test]
fn supervisor_error_paths_are_typed() {
    let models = test_models(1, 20);
    let mut sup = Supervisor::new(cluster_cfg(1, 1, FaultPlan::none())).unwrap();

    sup.insert(7, spec_for(&models[0])).unwrap();
    assert!(
        matches!(
            sup.insert(7, spec_for(&models[0])),
            Err(ClusterError::Kalman(_))
        ),
        "duplicate key"
    );
    assert!(matches!(
        sup.evolve(99, Evolution::random_walk(2)),
        Err(ClusterError::UnknownKey(99))
    ));
    assert!(matches!(sup.finish(99), Err(ClusterError::UnknownKey(99))));
    sup.shutdown();

    assert!(matches!(
        Supervisor::new(ClusterConfig {
            workers: 0,
            ..ClusterConfig::default()
        }),
        Err(ClusterError::Config(_))
    ));
}

/// Liveness probing: heartbeats pass on a healthy cluster and recover a
/// worker that died silently between polls.
#[test]
fn heartbeat_detects_silent_death() {
    let models = test_models(2, 30);
    let mut cfg = cluster_cfg(1, models.len(), FaultPlan::none());
    cfg.heartbeat_timeout = Duration::from_millis(300);
    let mut sup = Supervisor::new(cfg).unwrap();
    for (k, model) in models.iter().enumerate() {
        sup.insert(k as u64, spec_for(model)).unwrap();
    }
    sup.heartbeat().unwrap();
    assert_eq!(sup.stats().restarts[0], 0, "healthy heartbeat is free");

    // Feed some events, then script a kill through a fresh plan: the
    // next heartbeat must notice and bring the worker back.
    for (k, model) in models.iter().enumerate() {
        if let Some(obs) = &model.steps[0].observation {
            sup.observe(k as u64, obs.clone()).unwrap();
        }
    }
    sup.kill_worker(0);
    sup.heartbeat().unwrap();
    assert_eq!(sup.stats().restarts[0], 1, "heartbeat recovered the slot");
    for k in 0..models.len() {
        let (tail, _) = sup.finish(k as u64).unwrap();
        assert_eq!(tail.len(), 1, "stream {k}: the one observed state");
    }
    sup.shutdown();
}
