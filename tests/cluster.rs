//! Integration tests of cross-process serving (`kalman-cluster`): the
//! supervisor's output must be **bitwise identical** to in-process
//! serving — for any worker count and under every injected failure
//! (kill -9 mid-load, corrupt frames, severed connections, withheld
//! snapshot acks, exhausted crash budgets).
//!
//! The deterministic [`FaultPlan`] scripts each failure at an exact
//! point in the event sequence, so these tests pin exact recovery
//! behavior instead of sampling luck.  The fault scripts run on worker
//! processes and again, as `*_in_memory`, on the simulated supervisor's
//! in-memory links, with the same assertions.

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

/// Where a cluster's shard hosts run: worker processes behind Unix
/// sockets ([`Supervisor::new`]), or the simulated supervisor's in-memory
/// links, which die under the same fault scripts
/// ([`Supervisor::in_memory`]).
#[derive(Debug, Clone, Copy)]
enum Link {
    Process,
    InMemory,
}

fn start(link: Link, cfg: ClusterConfig) -> Supervisor {
    match link {
        Link::Process => Supervisor::new(cfg),
        Link::InMemory => Supervisor::in_memory(cfg),
    }
    .unwrap()
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

/// The same workload through a supervised cluster on `link`, with faults.
/// Returns per-stream outputs and the final health stats.
fn run_cluster(
    models: &[LinearModel],
    workers: usize,
    plan: FaultPlan,
    link: Link,
    tweak: impl FnOnce(&mut ClusterConfig),
) -> (Vec<Vec<FinalizedStep>>, kalman::cluster::ClusterStats) {
    let mut cfg = cluster_cfg(workers, models.len(), plan);
    tweak(&mut cfg);
    let mut sup = start(link, cfg);
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
        let (got, stats) = run_cluster(&models, workers, FaultPlan::none(), Link::Process, |_| {});
        assert_bitwise_equal(&got, &reference, &format!("{workers} workers"));
        assert!(
            stats.restarts.iter().all(|&r| r == 0),
            "healthy run must not restart workers"
        );
        assert!(stats.degraded.iter().all(|&d| !d));
    }
}

#[test]
fn killed_worker_recovers_bitwise_exactly_once() {
    killed_worker_recovers(Link::Process);
}

#[test]
fn killed_worker_recovers_bitwise_exactly_once_in_memory() {
    killed_worker_recovers(Link::InMemory);
}

/// kill -9 mid-load: the dead worker restarts from its last acked
/// snapshot, replays the logged suffix, and every finalized step is
/// delivered exactly once — bitwise equal to the undisturbed run.
fn killed_worker_recovers(link: Link) {
    let models = test_models(6, 60);
    let reference = run_inprocess(&models);
    for workers in [1usize, 2] {
        // One kill early (before the first snapshot can cover much) and
        // one late (forcing restore + short replay).
        let plan = FaultPlan {
            kill_after_events: vec![(0, 9), (0, 150)],
            ..FaultPlan::default()
        };
        let (got, stats) = run_cluster(&models, workers, plan, link, |_| {});
        assert_bitwise_equal(&got, &reference, &format!("{workers} workers, killed"));
        assert_eq!(stats.restarts[0], 2, "both scripted kills were recovered");
        assert!(!stats.degraded[0], "budget not exhausted");
        if workers > 1 {
            assert_eq!(stats.restarts[1], 0, "other shards undisturbed");
        }
    }
}

#[test]
fn corrupt_frame_recovers_and_other_shards_keep_serving() {
    corrupt_frame_recovers(Link::Process);
}

#[test]
fn corrupt_frame_recovers_and_other_shards_keep_serving_in_memory() {
    corrupt_frame_recovers(Link::InMemory);
}

/// A corrupted outbound frame kills the worker (it must detect BadCrc
/// and exit, never process garbage); the supervisor recovers that slot
/// and the other slot keeps serving undisturbed throughout.
fn corrupt_frame_recovers(link: Link) {
    let models = test_models(6, 60);
    let reference = run_inprocess(&models);
    let plan = FaultPlan {
        // Frame 1 is the config; corrupt a frame well into the event flow.
        frame_faults: vec![(0, 40, FrameFault::Corrupt)],
        ..FaultPlan::default()
    };
    let (got, stats) = run_cluster(&models, 2, plan, link, |_| {});
    assert_bitwise_equal(&got, &reference, "corrupt frame");
    assert!(stats.restarts[0] >= 1, "corruption forced a restart");
    assert_eq!(stats.restarts[1], 0, "healthy shard never restarted");
    assert!(!stats.degraded.iter().any(|&d| d));
}

#[test]
fn truncated_frame_mid_connection_recovers() {
    truncated_frame_recovers(Link::Process);
}

#[test]
fn truncated_frame_mid_connection_recovers_in_memory() {
    truncated_frame_recovers(Link::InMemory);
}

/// A connection severed mid-frame (truncated write) is detected on the
/// spot and recovered by replay — nothing lost, nothing duplicated.
fn truncated_frame_recovers(link: Link) {
    let models = test_models(6, 60);
    let reference = run_inprocess(&models);
    let plan = FaultPlan {
        frame_faults: vec![(0, 25, FrameFault::Truncate)],
        ..FaultPlan::default()
    };
    let (got, stats) = run_cluster(&models, 2, plan, link, |_| {});
    assert_bitwise_equal(&got, &reference, "truncated frame");
    assert!(stats.restarts[0] >= 1);
    assert_eq!(stats.restarts[1], 0);
}

#[test]
fn delayed_acks_force_full_replay_still_exact() {
    delayed_acks_force_full_replay(Link::Process);
}

#[test]
fn delayed_acks_force_full_replay_still_exact_in_memory() {
    delayed_acks_force_full_replay(Link::InMemory);
}

/// Withheld snapshot acks leave the write-ahead log untruncated, so a
/// later crash replays the entire history — still bitwise exact.
fn delayed_acks_force_full_replay(link: Link) {
    let models = test_models(4, 50);
    let reference = run_inprocess(&models);
    let plan = FaultPlan {
        delay_acks: vec![(0, u32::MAX)],
        kill_after_events: vec![(0, 120)],
        ..FaultPlan::default()
    };
    let (got, stats) = run_cluster(&models, 1, plan, link, |_| {});
    assert_bitwise_equal(&got, &reference, "delayed acks");
    assert_eq!(stats.restarts[0], 1);
}

#[test]
fn checkpoint_cut_short_replays_the_previous_ack() {
    checkpoint_cut_short(Link::Process);
}

#[test]
fn checkpoint_cut_short_replays_the_previous_ack_in_memory() {
    checkpoint_cut_short(Link::InMemory);
}

/// A snapshot request severed mid-frame: the host dies mid-checkpoint and
/// its ack never comes.  Recovery sends the previous ack's insert bytes
/// again, then the log it did not truncate — still bitwise exact.
///
/// One slot, four streams, every step observed, `checkpoint_every` = 16.
/// Frame 1 is the config, frames 2–5 the inserts.  Round 0 sends 4 events
/// (frames 6–9) and a poll (10); every later round 8 events and a poll.
/// Round 1 is frames 11–19 (events 5–12); round 2 sends events 13–16 as
/// frames 20–23, the first request as 24, events 17–20 as 25–28 and its
/// poll as 29; round 3 is frames 30–38 (events 21–28).  Round 4's events
/// 29–32 are frames 39–42, so the second request, after event 32, is
/// frame 43.
fn checkpoint_cut_short(link: Link) {
    let models = test_models(4, 50);
    let reference = run_inprocess(&models);
    let plan = FaultPlan {
        frame_faults: vec![(0, 43, FrameFault::Truncate)],
        ..FaultPlan::default()
    };
    let (got, stats) = run_cluster(&models, 1, plan, link, |_| {});
    assert_bitwise_equal(&got, &reference, "checkpoint cut short");
    assert_eq!(stats.restarts[0], 1);
    assert!(!stats.degraded[0]);
}

#[test]
fn kill_rule_inside_a_replay_fires_there() {
    kill_inside_a_replay(Link::Process);
}

#[test]
fn kill_rule_inside_a_replay_fires_there_in_memory() {
    kill_inside_a_replay(Link::InMemory);
}

/// A kill rule whose count falls inside a replay fires during the replay.
/// The kill after event 3 is found by event 4's send; the replay resends
/// events 1–4 (counted 4–7), so the second rule's event 5 is the replay's
/// second event.  That kill cuts the replay short, and a second restart
/// replays everything again — still bitwise exact.
fn kill_inside_a_replay(link: Link) {
    let models = test_models(4, 50);
    let reference = run_inprocess(&models);
    let plan = FaultPlan {
        kill_after_events: vec![(0, 3), (0, 5)],
        ..FaultPlan::default()
    };
    let (got, stats) = run_cluster(&models, 1, plan, link, |_| {});
    assert_bitwise_equal(&got, &reference, "kill inside a replay");
    assert_eq!(stats.restarts, vec![2], "both kills fired");
    assert!(!stats.degraded[0]);
}

#[test]
fn budget_exhaustion_degrades_without_data_loss() {
    budget_exhaustion_degrades(Link::Process);
}

#[test]
fn budget_exhaustion_degrades_without_data_loss_in_memory() {
    budget_exhaustion_degrades(Link::InMemory);
}

/// Crash budget exhaustion: the slot degrades to an in-process shard
/// rebuilt from snapshots + log — service continues, queued events are
/// not dropped, and the outputs stay bitwise exact.
fn budget_exhaustion_degrades(link: Link) {
    let models = test_models(4, 50);
    let reference = run_inprocess(&models);
    let plan = FaultPlan {
        kill_after_events: vec![(0, 60)],
        ..FaultPlan::default()
    };
    let (got, stats) = run_cluster(&models, 1, plan, link, |cfg| {
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
    let (_, stats) = run_cluster(&models, 1, plan, Link::Process, |_| {});
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

#[test]
fn degraded_slot_reports_what_a_worker_reports() {
    degraded_slot_reports(Link::Process);
}

#[test]
fn degraded_slot_reports_what_a_worker_reports_in_memory() {
    degraded_slot_reports(Link::InMemory);
}

/// A degraded slot runs the same shard host as a worker, so it reports
/// what a worker reports.  One script — healthy streams, a spec that does
/// not build, events for that key, and a finish that fails — runs on a
/// healthy 1-worker cluster and again with a slot that degrades before
/// its first poll: the outputs are bitwise equal, and so are the stream
/// errors (as a multiset) and every `finish` result.
fn degraded_slot_reports(link: Link) {
    const BROKEN: u64 = 100;
    const UNDETERMINED: u64 = 101;
    let models = test_models(3, 30);
    let run = |plan: FaultPlan, crash_budget: u32| {
        let mut cfg = cluster_cfg(1, models.len() + 2, plan);
        cfg.crash_budget = crash_budget;
        let mut sup = start(link, cfg);
        for (k, model) in models.iter().enumerate() {
            sup.insert(k as u64, spec_for(model)).unwrap();
        }
        let fresh = |dim| StreamSpec {
            init: StreamInit::Fresh { dim },
            opts: serve_opts(),
        };
        // A zero-dimensional state does not build; the host reports it.
        sup.insert(BROKEN, fresh(0)).unwrap();
        // No prior and no observations: never determined, so its finish
        // fails (and its window never fills, so no flush fails first).
        sup.insert(UNDETERMINED, fresh(2)).unwrap();
        let mut outputs: Vec<Vec<FinalizedStep>> = vec![Vec::new(); models.len()];
        for si in 0..models[0].num_states() {
            for (k, model) in models.iter().enumerate() {
                let step = &model.steps[si];
                if si > 0 {
                    sup.evolve(k as u64, step.evolution.clone().unwrap())
                        .unwrap();
                }
                if let Some(obs) = &step.observation {
                    sup.observe(k as u64, obs.clone()).unwrap();
                }
            }
            if si % 7 == 3 {
                sup.evolve(BROKEN, Evolution::random_walk(2)).unwrap();
            }
            if (1..4).contains(&si) {
                sup.evolve(UNDETERMINED, Evolution::random_walk(2)).unwrap();
            }
            sup.poll().unwrap();
            for (key, steps) in sup.take_outputs() {
                outputs[key as usize].extend(steps);
            }
        }
        let mut finishes = Vec::new();
        for key in [0, 1, 2, UNDETERMINED, BROKEN] {
            if key == BROKEN {
                // Still queued when this finish drains: the event's error
                // reaches the supervisor just ahead of the finish's own.
                sup.evolve(BROKEN, Evolution::random_walk(2)).unwrap();
            }
            let result = sup.finish(key).map(|(tail, ckpt)| {
                let tail: Vec<_> = tail.into_iter().map(|s| (s.index, s.mean)).collect();
                (tail, ckpt.index)
            });
            finishes.push(result.map_err(|e| e.to_string()));
        }
        let mut errors = sup.take_stream_errors();
        errors.sort();
        let stats = sup.stats();
        sup.shutdown();
        (outputs, errors, finishes, stats)
    };

    let (want, want_errors, want_finishes, stats) = run(FaultPlan::none(), 3);
    assert!(!stats.degraded[0] && stats.restarts[0] == 0);
    let plan = FaultPlan {
        kill_after_events: vec![(0, 2)],
        ..FaultPlan::default()
    };
    let (got, errors, finishes, stats) = run(plan, 0);
    assert!(stats.degraded[0], "the slot must have degraded");

    assert_bitwise_equal(&got, &want, "degraded slot");
    assert!(
        want_errors.iter().filter(|(k, _)| *k == BROKEN).count() >= 4,
        "the broken spec and each of its events are reported: {want_errors:?}"
    );
    assert_eq!(errors, want_errors, "stream errors");
    assert_eq!(finishes, want_finishes, "finish results");
    assert!(finishes[..3].iter().all(Result::is_ok));
    assert!(finishes[3..].iter().all(Result::is_err));
}

/// A finished key is free again once no log entry mentions it.  Right
/// after `finish` its `Insert`, events and `Finish` are still in the
/// write-ahead log, where a crash replay would credit the old stream's
/// outputs to a new one: the re-insert is refused.  The next snapshot ack
/// truncates the log, and the key is accepted; its outputs — across a
/// kill and replay — equal a fresh stream's bit for bit.
#[test]
fn finished_key_is_refused_until_the_log_forgets_it() {
    const REUSED: u64 = 5;
    let models = test_models(3, 30);
    let reference = run_inprocess(&models[1..2]);
    let mut sup = Supervisor::new(cluster_cfg(1, 2, FaultPlan::none())).unwrap();
    // Feeds `model` to `key`, polling after every step (and killing the
    // worker after step `kill_at`), then finishes it; returns its outputs.
    let feed = |sup: &mut Supervisor, key: u64, model: &LinearModel, kill_at: usize| {
        let mut got = Vec::new();
        for (si, step) in model.steps.iter().enumerate() {
            if si > 0 {
                sup.evolve(key, step.evolution.clone().unwrap()).unwrap();
            }
            if let Some(obs) = &step.observation {
                sup.observe(key, obs.clone()).unwrap();
            }
            if si == kill_at {
                sup.kill_worker(0);
            }
            sup.poll().unwrap();
            let outputs = sup.take_outputs().into_iter();
            got.extend(outputs.filter(|(k, _)| *k == key).flat_map(|(_, s)| s));
        }
        got.extend(sup.finish(key).unwrap().0);
        got
    };

    sup.insert(REUSED, spec_for(&models[0])).unwrap();
    feed(&mut sup, REUSED, &models[0], usize::MAX);
    assert!(
        matches!(
            sup.insert(REUSED, spec_for(&models[1])),
            Err(ClusterError::Kalman(_))
        ),
        "the log still holds the finished stream"
    );
    // Events of another stream on the same slot trigger a snapshot, whose
    // ack truncates the log past the finish.
    sup.insert(6, spec_for(&models[2])).unwrap();
    feed(&mut sup, 6, &models[2], usize::MAX);
    sup.insert(REUSED, spec_for(&models[1])).unwrap();
    let got = feed(&mut sup, REUSED, &models[1], 12);
    assert_eq!(sup.stats().restarts[0], 1);
    assert_bitwise_equal(&[got], &reference, "reused key");
    sup.shutdown();
}
