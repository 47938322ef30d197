//! Saturation benchmark for the cross-process serving layer
//! (`kalman::cluster`): a round-paced workload of many streams through a
//! supervisor that re-execs this binary as shard worker processes.  It
//! sweeps the worker count, kills a worker mid-load and times the
//! restart+replay recovery, and records everything (plus a
//! `speedup/cluster_w2` ratio gated by `bench_check`) into a
//! `BENCH_serve.json` artifact.  The in-process closed loop is the end-to-end
//! benchmark's `serve_light` / `serve_heavy` workloads (`benchmark/`).
//!
//! Two ungated rows split the two-slot figure: the same load through a
//! simulated supervisor (`Supervisor::in_memory`: encode, log, CRC,
//! decode and the worker's frame handler, no sockets or processes;
//! `cluster/w2/mem/events_per_s`) and through an in-process two-shard
//! `ShardedPool` (`cluster/w2/inproc/events_per_s`).
//!
//! `cargo run --release -p kalman-bench --bin saturation -- \
//!     [--producers 32] [--steps 300] [--n 8] [--smoke] [--json BENCH_serve.json]`

use kalman::cluster::{ClusterConfig, StreamInit, StreamSpec, Supervisor};
use kalman::model::StreamEvent;
use kalman::prelude::*;
use kalman::serve::{ServeConfig, ShardedPool};
use kalman_bench::{print_row, write_bench_json, Args, BenchEntry};

fn event_stream(n: usize, steps: usize, salt: usize) -> Vec<StreamEvent> {
    let mut events = Vec::with_capacity(2 * steps - 1);
    for i in 0..steps {
        if i > 0 {
            events.push(StreamEvent::Evolve(Evolution::random_walk(n)));
        }
        events.push(StreamEvent::Observe(Observation {
            g: Matrix::identity(n),
            o: (0..n)
                .map(|c| ((salt * steps * n + i * n + c) as f64 * 0.05).sin())
                .collect(),
            noise: CovarianceSpec::Identity(n),
        }));
    }
    events
}

/// One cluster measurement: wall time for the whole load, and — when a
/// worker was killed mid-load — the kill-to-recovered wall time.
struct ClusterRun {
    secs: f64,
    recovery_secs: Option<f64>,
}

/// Every stream's options.
fn stream_options() -> StreamOptions {
    StreamOptions {
        lag: 12,
        flush_every: 6,
        covariances: false,
        policy: ExecPolicy::Seq,
        auto_flush: false,
        ..StreamOptions::default()
    }
}

/// How a supervisor is built: [`Supervisor::new`] (worker processes) or
/// [`Supervisor::in_memory`].
type Start = fn(ClusterConfig) -> kalman::cluster::Result<Supervisor>;

/// Round-paces `producers` event streams through a supervised cluster.
/// With `kill`, kills worker 0 halfway through and times the
/// supervisor's detect → restart → restore → replay cycle.
fn run_cluster(
    start: Start,
    producers: usize,
    workers: usize,
    steps: usize,
    n: usize,
    kill: bool,
) -> ClusterRun {
    let mut sup = start(ClusterConfig {
        workers,
        queue_capacity: 4 * producers.max(1),
        // Re-exec this binary with no arguments: the socket environment
        // variable alone turns the child into a worker (see `main`).
        worker_args: Vec::new(),
        ..ClusterConfig::default()
    })
    .expect("valid cluster config");
    let opts = stream_options();
    for key in 0..producers as u64 {
        sup.insert(
            key,
            StreamSpec {
                init: StreamInit::WithPrior {
                    mean: vec![0.0; n],
                    cov: CovarianceSpec::Identity(n),
                },
                opts,
            },
        )
        .expect("fresh key");
    }
    let streams: Vec<Vec<StreamEvent>> = (0..producers)
        .map(|salt| event_stream(n, steps, salt))
        .collect();
    let rounds = 2 * steps - 1;
    let kill_round = if kill { Some(rounds / 2) } else { None };

    let start = std::time::Instant::now();
    let mut recovery_secs = None;
    let mut finalized = 0usize;
    for si in 0..rounds {
        for (key, events) in streams.iter().enumerate() {
            sup.send(key as u64, events[si].clone()).expect("delivery");
        }
        if Some(si) == kill_round {
            sup.kill_worker(0);
            let t = std::time::Instant::now();
            // The heartbeat discovers the silent death and runs the full
            // recovery (backoff, respawn, snapshot restore, log replay).
            sup.heartbeat().expect("recovery");
            recovery_secs = Some(t.elapsed().as_secs_f64());
        }
        if si % 4 == 3 {
            sup.poll().expect("poll");
            for (_, out) in sup.take_outputs() {
                finalized += out.len();
            }
        }
    }
    for key in 0..producers as u64 {
        finalized += sup.finish(key).expect("solvable").0.len();
    }
    for (_, out) in sup.take_outputs() {
        finalized += out.len();
    }
    let secs = start.elapsed().as_secs_f64();
    assert_eq!(finalized, producers * steps, "every step exactly once");
    assert!(
        sup.take_stream_errors().is_empty(),
        "healthy load must not produce stream errors"
    );
    sup.shutdown();
    ClusterRun {
        secs,
        recovery_secs,
    }
}

/// The same round-paced load through an in-process `ShardedPool` of
/// `shards` shards (a submit per event, a drain where the cluster
/// polls); wall seconds.
fn run_pool(producers: usize, shards: usize, steps: usize, n: usize) -> f64 {
    let (mut pool, mut ingress) = ShardedPool::new(ServeConfig {
        shards,
        queue_capacity: 4 * producers.max(1),
        policy: ExecPolicy::Seq,
    });
    for key in 0..producers as u64 {
        let smoother = StreamingSmoother::with_prior(
            vec![0.0; n],
            CovarianceSpec::Identity(n),
            stream_options(),
        )
        .expect("valid stream");
        pool.insert(key, smoother).expect("fresh key");
    }
    let streams: Vec<Vec<StreamEvent>> = (0..producers)
        .map(|salt| event_stream(n, steps, salt))
        .collect();
    let start = std::time::Instant::now();
    let mut finalized = 0usize;
    let drain = |pool: &mut ShardedPool| {
        pool.drain();
        pool.outputs()
            .map(|(_, entry)| entry.result().expect("healthy load").len())
            .sum::<usize>()
    };
    for si in 0..2 * steps - 1 {
        for (key, events) in streams.iter().enumerate() {
            if let Err(e) = ingress.try_submit(key as u64, events[si].clone()) {
                finalized += drain(&mut pool);
                let event = e.into_event();
                ingress
                    .try_submit(key as u64, event)
                    .expect("drained queue");
            }
        }
        if si % 4 == 3 {
            finalized += drain(&mut pool);
        }
    }
    finalized += drain(&mut pool);
    for key in 0..producers as u64 {
        finalized += pool.finish(key).expect("solvable").0.len();
    }
    let secs = start.elapsed().as_secs_f64();
    assert_eq!(finalized, producers * steps, "every step exactly once");
    secs
}

fn main() {
    // If the supervisor re-exec'd us as a shard worker, this never
    // returns; in every other invocation it is an instant no-op.
    kalman::cluster::worker_entry_from_env();

    let mut args = Args::parse();
    let smoke = args.has("smoke");
    // n = 8: the gated w1/w2 ratio is only stable when smoothing work, not
    // socket traffic, dominates the wall time.
    let producers: usize = args.get("producers", if smoke { 16 } else { 32 });
    let steps: usize = args.get("steps", if smoke { 150 } else { 300 });
    let n: usize = args.get("n", 8);
    let json: String = args.get("json", "BENCH_serve.json".to_string());
    args.finish();

    // Worker-count sweep + recovery timing.
    let events = producers * (2 * steps - 1);
    println!(
        "saturation: {producers} streams x {steps} steps (n = {n}), \
         {events} events per run, worker processes re-exec'd from this binary\n"
    );
    print_row(&[
        "workers".into(),
        "secs".into(),
        "events/s".into(),
        "recovery".into(),
    ]);
    let mut entries = Vec::new();
    let mut secs_w1 = 0.0;
    let mut secs_w2 = 0.0;
    for workers in [1usize, 2, 4] {
        let r = run_cluster(Supervisor::new, producers, workers, steps, n, false);
        print_row(&[
            format!("{workers}"),
            format!("{:.3}", r.secs),
            format!("{:.0}", events as f64 / r.secs),
            "-".into(),
        ]);
        entries.push(BenchEntry::new(format!("cluster/w{workers}/secs"), r.secs));
        entries.push(BenchEntry::new(
            format!("cluster/w{workers}/events_per_s"),
            events as f64 / r.secs,
        ));
        match workers {
            1 => secs_w1 = r.secs,
            2 => secs_w2 = r.secs,
            _ => {}
        }
    }
    // The two-slot split: the same load with no sockets or processes, and
    // with no protocol either.
    let mem = run_cluster(Supervisor::in_memory, producers, 2, steps, n, false).secs;
    let inproc = run_pool(producers, 2, steps, n);
    for (label, name, secs) in [("2 (mem)", "mem", mem), ("2 (pool)", "inproc", inproc)] {
        print_row(&[
            label.into(),
            format!("{secs:.3}"),
            format!("{:.0}", events as f64 / secs),
            "-".into(),
        ]);
        entries.push(BenchEntry::new(
            format!("cluster/w2/{name}/events_per_s"),
            events as f64 / secs,
        ));
    }
    let rk = run_cluster(Supervisor::new, producers, 2, steps, n, true);
    let recovery = rk.recovery_secs.expect("kill was injected");
    print_row(&[
        "2+kill".into(),
        format!("{:.3}", rk.secs),
        format!("{:.0}", events as f64 / rk.secs),
        format!("{:.1}ms", recovery * 1e3),
    ]);
    entries.push(BenchEntry::new(
        "cluster/recovery_after_kill/secs",
        recovery,
    ));
    // The gated ratio: two timings from the same process on the same
    // machine, so it is hardware-normalized like the kernel speedups.
    entries.push(BenchEntry::new("speedup/cluster_w2", secs_w1 / secs_w2));

    println!(
        "\nrecovery = SIGKILL of worker 0 mid-load to heartbeat-detected, \
         restarted, snapshot-restored, log-replayed;\nspeedup/cluster_w2 = \
         1-worker over 2-worker wall time (gated by bench_check);\n2 (mem) = \
         in-memory links (protocol without sockets or processes), 2 (pool) = \
         in-process ShardedPool (ungated)."
    );
    let config = format!("cluster producers={producers} steps={steps} n={n}");
    write_bench_json(&json, &config, &entries).expect("write artifact");
    println!("wrote {json} ({} entries)", entries.len());
}
