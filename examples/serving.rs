//! Serving: a sharded, backpressured front-end over many live streams —
//! async producers paced by bounded queues, a consumer loop draining in
//! batches, live metrics, and a shard rebalance mid-flight.
//!
//! Run with: `cargo run --release -p kalman --example serving`

use futures::executor::LocalPool;
use kalman::model::{events_of, generators};
use kalman::prelude::*;
use kalman::serve::{ServeConfig, ShardedPool};
use rand::SeedableRng;

fn main() {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
    let users = 32usize;
    let steps = 160usize;

    // --- The back end: 4 shards, each an independent SmootherPool -------
    let cfg = ServeConfig {
        shards: 4,
        queue_capacity: 64, // small on purpose: backpressure is the demo
        policy: ExecPolicy::Seq,
    };
    let (mut pool, ingress) = ShardedPool::new(cfg);
    let opts = StreamOptions {
        lag: 16,
        flush_every: 8,
        covariances: false,
        policy: ExecPolicy::Seq, // parallelism comes from cross-stream batching
        ..StreamOptions::default()
    };

    // One tracking problem per user; streams placed by stable key hash.
    let problems: Vec<_> = (0..users)
        .map(|_| generators::tracking_2d(&mut rng, steps, 0.1, 0.5, 0.25))
        .collect();
    for (key, problem) in problems.iter().enumerate() {
        let prior = problem.model.prior.as_ref().expect("tracking has a prior");
        pool.insert(
            key as u64,
            StreamingSmoother::with_prior(prior.mean.clone(), prior.cov.clone(), opts)
                .expect("valid options"),
        )
        .expect("fresh key");
    }

    // --- Producers: one async task per user -----------------------------
    // `submit(...).await` parks a producer whenever its shard's queue is
    // full, so memory stays bounded no matter how fast producers run; the
    // yield keeps greedy producers from starving their peers on the
    // single-threaded executor.
    let mut tasks = LocalPool::new();
    let spawner = tasks.spawner();
    for (key, problem) in problems.iter().enumerate() {
        let mut tx = ingress.clone();
        let events = events_of(&problem.model);
        spawner.spawn_local(async move {
            for event in events {
                tx.submit(key as u64, event).await.expect("pool alive");
                futures::future::yield_now().await;
            }
        });
    }
    drop(ingress); // the consumer detects end-of-stream per queue

    // --- The serving loop ------------------------------------------------
    let mut drains = 0u64;
    let mut finalized = vec![0usize; users];
    let migrate_after = steps / 2;
    let mut migrated = false;
    loop {
        tasks.run_until_stalled(); // producers fill the bounded queues
        let summary = pool.drain(); // consumer applies + batch-flushes
        drains += 1;
        for (key, entry) in pool.outputs() {
            finalized[key as usize] += entry.result().expect("solvable windows").len();
        }
        // Live operations: move user 0 to another shard through the exact
        // finish → restore path.  Producers keep routing by the
        // stable hash; the drain forwards their events to the new home.
        if !migrated && finalized[0] >= migrate_after {
            let from = pool.shard_of(0).expect("registered");
            let to = (from + 1) % pool.shards();
            let tail = pool.rebalance(0, to).expect("window solvable");
            finalized[0] += tail.len();
            println!(
                "rebalanced user 0: shard {from} → {to} ({} steps finalized at migration)",
                tail.len()
            );
            migrated = true;
        }
        if tasks.is_empty() && summary.ops == 0 {
            break;
        }
    }

    // --- Metrics ----------------------------------------------------------
    let stats = pool.stats();
    println!("\nper-shard serving metrics after {drains} drains:");
    println!("{stats}");
    let agg = stats.aggregate();
    println!(
        "\naggregate: {} events served, {} producer throttles (backpressure), \
         slowest batched flush {:?}",
        agg.submitted, agg.throttled, agg.last_flush
    );

    // The registry-backed exporters see the same serving metrics with no
    // extra wiring — one Prometheus line as proof.
    let prom = kalman::obs::prometheus_text();
    let prefix = pool.metrics_prefix().replace('.', "_");
    let line = prom
        .lines()
        .find(|l| l.starts_with(&format!("{prefix}_shard0_flushed_steps")))
        .expect("serving metrics are exported");
    println!("exporter sees: {line}");

    // --- Wind-down --------------------------------------------------------
    for key in 0..users as u64 {
        let (tail, finished) = pool.finish(key).expect("final window solvable");
        finalized[key as usize] += tail.len();
        assert_eq!(finished.index as usize, steps);
    }
    assert!(finalized.iter().all(|&c| c == steps + 1));
    println!(
        "\nserved {users} users × {} steps each, every step finalized exactly once",
        steps + 1
    );
}
