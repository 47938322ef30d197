//! Streaming: serve a live 2-D tracking problem through the fixed-lag
//! smoother, then fan out to many targets with a `SmootherPool`.
//!
//! Run with: `cargo run --release -p kalman --example streaming`

use kalman::model::{events_of, generators};
use kalman::prelude::*;
use rand::SeedableRng;

fn main() {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(42);

    // --- One stream: measurements arrive step by step -------------------
    let problem = generators::tracking_2d(&mut rng, 300, 0.1, 0.5, 0.25);
    let opts = StreamOptions {
        lag: 24,        // estimates finalize 24 steps behind the newest fix
        flush_every: 8, // re-smooth the window every 8 steps
        covariances: true,
        ..StreamOptions::default()
    };
    let prior = problem.model.prior.as_ref().expect("tracking has a prior");
    let mut stream = StreamingSmoother::with_prior(prior.mean.clone(), prior.cov.clone(), opts)
        .expect("valid options");

    let mut finalized = Vec::new();
    let mut peak_window = 0;
    let mut flushes = 0u64;
    for event in events_of(&problem.model) {
        let out = stream.ingest(event).expect("well-formed event");
        flushes += u64::from(!out.is_empty());
        finalized.extend(out);
        peak_window = peak_window.max(stream.buffered_len());
    }
    // Every flush eliminates only the 8 steps that arrived since the last
    // one and back-substitutes through the window's kept R blocks, whose
    // storage the first flush sized — the intended serving pattern.
    println!(
        "single stream: window storage sized {} time(s) across {flushes} steady flushes",
        stream.plan_builds()
    );
    let (tail, finished) = stream.finish().expect("final window solvable");
    finalized.extend(tail);

    println!(
        "single stream: {} steps finalized, window never exceeded {peak_window} steps",
        finalized.len()
    );
    println!(
        "the finished stream's snapshot anchors state {} in O(n²) bytes\n",
        finished.index
    );

    println!(" step    true x    true y    smoothed x ± sd    smoothed y ± sd");
    for f in finalized.iter().step_by(60) {
        let truth = &problem.truth[f.index as usize];
        let cov = f.covariance.as_ref().expect("covariances requested");
        println!(
            "{:>5}   {:>7.2}   {:>7.2}     {:>7.2} ± {:.2}     {:>7.2} ± {:.2}",
            f.index,
            truth[0],
            truth[1],
            f.mean[0],
            cov[(0, 0)].max(0.0).sqrt(),
            f.mean[1],
            cov[(1, 1)].max(0.0).sqrt(),
        );
    }

    // --- Many streams: a serving pool -----------------------------------
    let n_targets = 6;
    let pooled = StreamOptions {
        lag: 24,
        flush_every: 8,
        covariances: false,
        policy: ExecPolicy::Seq, // parallelism comes from the pool
        ..StreamOptions::default()
    };
    let targets: Vec<_> = (0..n_targets)
        .map(|_| generators::tracking_2d(&mut rng, 200, 0.1, 0.5, 0.25))
        .collect();
    let mut pool = SmootherPool::new(ExecPolicy::par());
    let ids: Vec<StreamId> = targets
        .iter()
        .map(|t| {
            let p = t.model.prior.as_ref().expect("prior");
            pool.insert(
                StreamingSmoother::with_prior(p.mean.clone(), p.cov.clone(), pooled)
                    .expect("valid options"),
            )
        })
        .collect();

    let mut counts = vec![0usize; n_targets];
    let mut batch = PollBatch::new();
    for si in 0..targets[0].model.num_states() {
        for (k, target) in targets.iter().enumerate() {
            let step = &target.model.steps[si];
            if si > 0 {
                pool.evolve(ids[k], step.evolution.clone().expect("chain step"))
                    .expect("well-formed step");
            }
            if let Some(obs) = &step.observation {
                pool.observe(ids[k], obs.clone()).expect("well-formed obs");
            }
        }
        // One batched re-smooth for every stream whose window filled; the
        // reused PollBatch keeps steady-state polls allocation-free.
        pool.poll_into(&mut batch);
        for entry in batch.entries() {
            let k = ids.iter().position(|x| *x == entry.id()).expect("known id");
            counts[k] += entry.result().expect("windows solvable").len();
        }
    }
    println!();
    for (k, id) in ids.iter().enumerate() {
        let (tail_steps, _) = pool.finish(*id).expect("final window solvable");
        counts[k] += tail_steps.len();
    }
    println!("pool: {n_targets} targets served, per-stream finalized counts: {counts:?}");
}
