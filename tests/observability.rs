//! The observability subsystem against a live serving workload: exporter
//! round-trips, journal events, snapshot-vs-counter consistency, and the
//! `Stats` display table.
//!
//! Registry, journal, and the runtime switch are process-global, so every
//! assertion here works in deltas or searches by this pool's unique
//! metric prefix — never by absolute global state.

use kalman::model::{events_of, generators};
use kalman::obs;
use kalman::prelude::*;
use kalman::serve::{ServeConfig, ShardedPool};
use rand::SeedableRng;
use std::sync::{Mutex, MutexGuard};

/// `stream.eliminations` and `stream.slot_inversions` are process-wide
/// counters and every test here drives streams, so the tests take turns:
/// the exact-count test reads deltas nobody else moves.
fn serial() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(|p| p.into_inner())
}

/// Drives a small sharded workload to completion: `streams` streams of
/// `steps` steps each, drained on a fixed cadence.  Returns the pool
/// (with its stats still live) for inspection.
fn run_workload(streams: u64, steps: usize) -> ShardedPool {
    let cfg = ServeConfig {
        shards: 2,
        queue_capacity: 64,
        policy: ExecPolicy::Seq,
    };
    let (mut pool, mut ingress) = ShardedPool::new(cfg);
    let opts = StreamOptions {
        lag: 6,
        flush_every: 3,
        covariances: false,
        policy: ExecPolicy::Seq,
        ..StreamOptions::default()
    };
    for key in 0..streams {
        pool.insert(
            key,
            StreamingSmoother::with_prior(vec![0.0], CovarianceSpec::Identity(1), opts)
                .expect("valid options"),
        )
        .expect("fresh key");
    }
    for i in 0..steps {
        for key in 0..streams {
            if i > 0 {
                ingress
                    .try_evolve(key, Evolution::random_walk(1))
                    .expect("queue has room");
            }
            ingress
                .try_observe(
                    key,
                    Observation {
                        g: Matrix::identity(1),
                        o: vec![(i as f64 * 0.1).sin()],
                        noise: CovarianceSpec::Identity(1),
                    },
                )
                .expect("queue has room");
        }
        if i % 8 == 7 {
            pool.drain();
        }
    }
    pool.drain();
    pool
}

#[test]
fn json_snapshot_round_trips_through_the_bench_reader() {
    let _turn = serial();
    let pool = run_workload(6, 40);
    let stats = pool.stats();
    let agg = stats.aggregate();
    assert!(agg.flushed_steps > 0, "workload must have flushed");

    let json = obs::json_snapshot();
    let path =
        std::env::temp_dir().join(format!("kalman_obs_roundtrip_{}.json", std::process::id()));
    std::fs::write(&path, &json).expect("writable temp dir");
    let entries =
        kalman_bench::read_bench_json(path.to_str().expect("utf-8 path")).expect("readable");
    std::fs::remove_file(&path).ok();

    let prefix = pool.metrics_prefix();
    let find = |name: String| {
        entries
            .iter()
            .find(|e| e.name == name)
            .unwrap_or_else(|| panic!("exported entry {name} missing"))
            .value
    };
    // Counters round-trip exactly; the snapshot may lag the live counter
    // only if something concurrently submits — nothing does here.
    let mut submitted = 0.0;
    let mut flushed_steps = 0.0;
    let mut flush_count = 0.0;
    for s in 0..pool.shards() {
        submitted += find(format!("{prefix}.shard{s}.submitted"));
        flushed_steps += find(format!("{prefix}.shard{s}.flushed_steps"));
        flush_count += find(format!("{prefix}.shard{s}.flush_latency/count"));
    }
    assert_eq!(submitted as u64, agg.submitted);
    assert_eq!(flushed_steps as u64, agg.flushed_steps);
    assert_eq!(flush_count as u64, agg.flushes);
    // The drain-latency histogram exports its quantiles.
    let p99 = find(format!("{prefix}.drain_latency/p99"));
    assert!(p99 >= 0.0 && p99.is_finite());
    let count = find(format!("{prefix}.drain_latency/count"));
    assert_eq!(count as u64, stats.drain_latency.count);
}

#[test]
fn prometheus_text_exposes_the_live_pool() {
    let _turn = serial();
    let pool = run_workload(4, 30);
    let agg = pool.stats().aggregate();
    let text = obs::prometheus_text();
    let prefix = pool.metrics_prefix().replace('.', "_");

    // Counter samples with the snapshot's exact values.
    let mut submitted = 0u64;
    for s in 0..pool.shards() {
        let name = format!("{prefix}_shard{s}_submitted");
        let line = text
            .lines()
            .find(|l| l.starts_with(&format!("{name} ")))
            .unwrap_or_else(|| panic!("{name} not exposed"));
        submitted += line
            .rsplit(' ')
            .next()
            .expect("sample line")
            .parse::<u64>()
            .expect("counter sample is integral");
        assert!(text.contains(&format!("# TYPE {name} counter")));
    }
    assert_eq!(submitted, agg.submitted);

    // Histograms expose the cumulative bucket form.
    let hist = format!("{prefix}_drain_latency");
    assert!(text.contains(&format!("# TYPE {hist} histogram")));
    assert!(text.contains(&format!("{hist}_bucket{{le=\"+Inf\"}}")));
    assert!(text.contains(&format!("{hist}_count")));

    // The workspace gauges were wired in by ShardedPool::new.
    assert!(text.contains("# TYPE dense_workspace_hits gauge"));
}

#[test]
fn journal_records_pool_lifecycle_and_rebalance() {
    let _turn = serial();
    let recorded_before = obs::journal_recorded();
    let mut pool = run_workload(4, 30);
    let from = pool.shard_of(2).expect("registered");
    let to = (from + 1) % pool.shards();
    pool.rebalance(2, to).expect("window solvable");

    if !obs::enabled() {
        // obs-off build (or another test raced the runtime switch — not
        // the case in this binary): events are no-ops by contract.
        assert_eq!(obs::journal_recorded(), recorded_before);
        return;
    }
    let events = obs::journal_events();
    let new = |kind: &str| {
        events
            .iter()
            .filter(|e| e.seq >= recorded_before && e.kind == kind)
            .count()
    };
    assert!(new("serve.pool_created") >= 1);
    let rebalance = events
        .iter()
        .rev()
        .find(|e| e.seq >= recorded_before && e.kind == "serve.rebalance")
        .expect("rebalance journaled");
    assert_eq!((rebalance.a, rebalance.b), (2, to as u64));
    // Sequence numbers stay monotone within the retained window.
    for pair in events.windows(2) {
        assert!(pair[1].seq > pair[0].seq);
    }
}

#[test]
fn stats_snapshot_is_consistent_with_registry_counters() {
    let _turn = serial();
    let pool = run_workload(5, 40);
    let stats = pool.stats();
    let prefix = pool.metrics_prefix();
    let snapshot = obs::metrics_snapshot();
    for (s, shard) in stats.shards.iter().enumerate() {
        let counter = |leaf: &str| {
            let name = format!("{prefix}.shard{s}.{leaf}");
            match snapshot
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("{name} registered"))
                .reading
            {
                obs::MetricReading::Counter(v) => v,
                ref other => panic!("{name}: expected counter, got {other:?}"),
            }
        };
        assert_eq!(counter("submitted"), shard.submitted);
        assert_eq!(counter("drained"), shard.drained);
        assert_eq!(counter("flushed_steps"), shard.flushed_steps);
        assert_eq!(counter("flush_errors"), shard.flush_errors);
        // The typed view derives flushes/total_flush from the latency
        // histogram: count and sum must agree.
        assert_eq!(shard.flushes, shard.flush_latency.count);
        assert_eq!(
            shard.total_flush,
            std::time::Duration::from_nanos(shard.flush_latency.sum)
        );
    }
    // Everything submitted was drained (the workload runs to completion).
    let agg = stats.aggregate();
    assert_eq!(agg.submitted, agg.drained);
}

#[test]
fn stats_display_renders_per_shard_and_aggregate_rows() {
    let _turn = serial();
    let pool = run_workload(3, 30);
    let stats = pool.stats();
    let table = stats.to_string();
    let mut lines = table.lines();
    let header = lines.next().expect("header line");
    for col in ["shard", "streams", "flushes", "flush µs"] {
        assert!(header.contains(col), "header missing {col:?}: {header}");
    }
    // One row per shard, then the aggregate row, then the drain line.
    let rows: Vec<&str> = lines.collect();
    assert_eq!(rows.len(), stats.shards.len() + 2, "{table}");
    assert!(rows[stats.shards.len()].trim_start().starts_with("all"));
    assert!(rows[stats.shards.len() + 1].starts_with("drain latency"));
    let agg = stats.aggregate();
    assert!(rows[stats.shards.len()].contains(&agg.submitted.to_string()));
}

#[test]
fn queue_wait_histogram_fills_exactly_when_instrumentation_is_live() {
    let _turn = serial();
    let pool = run_workload(4, 30);
    let agg = pool.stats().aggregate();
    if obs::enabled() {
        // Every drained op carried a live stamp.
        assert_eq!(agg.queue_wait.count, agg.drained);
    } else {
        // obs-off: stamps are inert, the histogram never fills.
        assert_eq!(agg.queue_wait.count, 0);
    }
}

/// The count that states the incremental flush's claim: every step is
/// eliminated exactly once in its life, whatever the cadence — `N − 1`
/// forward steps for a stream of `N` steps up to `finish` (the last step is
/// never eliminated), where re-factoring the window every flush cost
/// `(lag + flush_every) / flush_every + 1` per step.  A restored stream
/// re-eliminates its buffered window, once.  The same count holds for the
/// SelInv terms of a covariance stream — each `R_jj` is inverted once, with
/// its elimination, where every flush covering the step used to invert it
/// again — and a stream without covariances computes none.
#[test]
fn every_step_is_eliminated_exactly_once() {
    let _turn = serial();
    if !obs::enabled() {
        return; // obs-off: the counters are compiled out with the other instruments
    }
    let eliminations = obs::counter("stream.eliminations");
    let inversions = obs::counter("stream.slot_inversions");
    let counts = || (eliminations.get(), inversions.get());
    let since = |before: (u64, u64)| (eliminations.get() - before.0, inversions.get() - before.1);
    let model =
        generators::paper_benchmark(&mut rand_chacha::ChaCha8Rng::seed_from_u64(77), 2, 59, true);
    let prior = model.prior.as_ref().expect("generated with a prior");
    for (lag, flush_every) in [(8usize, 1usize), (5, 3), (3, 7)] {
        let opts = StreamOptions {
            lag,
            flush_every,
            covariances: true,
            ..StreamOptions::default()
        };
        let before = counts();
        let mut stream = StreamingSmoother::with_prior(prior.mean.clone(), prior.cov.clone(), opts)
            .expect("valid options");
        let mut restored = None;
        for (e, event) in events_of(&model).into_iter().enumerate() {
            stream.ingest(event).expect("valid event");
            if e == 61 {
                let snapshot = stream.snapshot().expect("fixed lag");
                restored = Some(StreamingSmoother::restore(snapshot, opts).expect("own snapshot"));
            }
        }
        stream.finish().expect("solvable window");
        assert_eq!(
            since(before),
            (60 - 1, 60 - 1),
            "lag {lag}, flush_every {flush_every}"
        );

        let restored = restored.expect("snapshot taken");
        let buffered = restored.buffered_len() as u64;
        assert_eq!(restored.eliminated_len(), 0);
        let before = counts();
        restored.finish().expect("solvable window");
        assert_eq!(since(before), (buffered - 1, buffered - 1));

        let before = counts();
        let mut means_only = StreamingSmoother::with_prior(
            prior.mean.clone(),
            prior.cov.clone(),
            StreamOptions {
                covariances: false,
                ..opts
            },
        )
        .expect("valid options");
        for event in events_of(&model) {
            means_only.ingest(event).expect("valid event");
        }
        means_only.finish().expect("solvable window");
        assert_eq!(since(before), (60 - 1, 0));
    }
}
