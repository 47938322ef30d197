//! Figure 2: running times of all six smoother variants versus core count,
//! for the two problem shapes of the paper's panels.
//!
//! Paper sizes: (n=6, k=5 000 000) and (n=48, k=100 000) on 56/64-core
//! servers with 128–200 GB of RAM.  Defaults here are scaled to the
//! container (24 cores, 21 GB): (n=6, k=500 000) and (n=48, k=20 000);
//! `--paper` requests the full paper sizes.  After each panel it prints
//! the §5.4 single-core overhead table (Odd-Even / Paige-Saunders, the NC
//! pair, Associative / Kalman) from the sweep's one-core row.
//!
//! `cargo run --release -p kalman-bench --bin fig2_running_times \
//!     [--k6 500000] [--k48 20000] [--runs 3] [--paper] [--quick]`
//!
//! `--smoke` runs the CI-sized single-thread benchmark instead: the batch
//! odd-even smoother at n ∈ {4, 8, 16} (k = `--ksmoke`, default 20 000),
//! measured twice — once with the blocked kernels + workspace pooling and
//! once with the unblocked reference kernels + pooling disabled — plus a
//! warm n = 48 plan's time per step at k = 63 against k = 2000 (memory
//! locality of the walk) and sixteen `serve_heavy`-shaped covariance
//! streams fed stream-major against round-robin (memory locality of the
//! serving flush), and records the timings plus the speedups to
//! `--json PATH` (`BENCH_smoother.json` in CI) with the SIMD backend they
//! ran on.
//!
//! The in-process "reference" toggles only the kernel/pooling choices, not
//! the structural rewrites (fused factor-and-apply, triangular-pentagonal
//! eliminations, scratch reuse), so these speedups *understate* the gain
//! over the pre-optimization tree; the checked-in `BENCH_smoother.json`
//! additionally records `main-baseline/*` timings measured by interleaved
//! A/B against the predecessor commit on the same machine, with the
//! `vs-main/*` speedups the acceptance gate refers to.

use kalman::prelude::*;
use kalman_bench::sweep::{panel_model, run_sweep, time_of, Algorithm, Record};
use kalman_bench::{core_sweep, fmt_secs, median_time, print_row, Args, BenchEntry};
use std::time::Instant;

/// Median steady-state flush of a stream on the serving path, on a fixed
/// cadence (n = 4, lag = flush_every = 32): each flush eliminates the 32
/// steps that arrived since the last one and back-substitutes through the
/// 64-step window.  The subject of the `obs/*` instrumentation A/B.
fn steady_flush(reps: usize) -> f64 {
    let n = 4usize;
    let opts = StreamOptions {
        lag: 32,
        flush_every: 32,
        covariances: false,
        policy: ExecPolicy::Seq,
        auto_flush: false,
        ..StreamOptions::default()
    };
    let model = panel_model(n, 1_000, 99);
    let prior = model.prior.as_ref().expect("panel models carry priors");
    let mut steadies = Vec::new();
    let mut out = Vec::new();
    for _ in 0..reps {
        let mut stream = StreamingSmoother::with_prior(prior.mean.clone(), prior.cov.clone(), opts)
            .expect("valid options");
        let mut next = 0usize;
        let feed = |stream: &mut StreamingSmoother, count: usize, next: &mut usize| {
            for _ in 0..count {
                let step = &model.steps[*next];
                if *next > 0 {
                    stream
                        .evolve(step.evolution.clone().expect("chain step"))
                        .expect("well-formed step");
                }
                if let Some(obs) = &step.observation {
                    stream.observe(obs.clone()).expect("well-formed obs");
                }
                *next += 1;
            }
        };
        feed(&mut stream, 64, &mut next); // fill to window capacity
        stream.flush_into(&mut out).expect("window solvable");
        for cycle in 0..8 {
            feed(&mut stream, 32, &mut next);
            let t = Instant::now();
            stream.flush_into(&mut out).expect("window solvable");
            if cycle >= 2 {
                steadies.push(t.elapsed().as_secs_f64());
            }
        }
        assert!(
            stream.plan_builds() <= 1,
            "steady cadence must size its window storage once ({} times)",
            stream.plan_builds()
        );
    }
    steadies.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    steadies[steadies.len() / 2]
}

/// Streams, steps per stream and the stream shape of [`serve_locality`]:
/// `serve_heavy`'s (n = 8 observed through a square `G`, lag 32, flush
/// every 8, covariances).
const LOCALITY_STREAMS: usize = 16;
const LOCALITY_STEPS: usize = 400;

/// Seconds per step of [`LOCALITY_STREAMS`] covariance streams of
/// `serve_heavy`'s shape, fed `[stream-major, round-robin]`: each stream's
/// events back to back (its window stays in cache from one flush to the
/// next), or one event per stream in turn (the other fifteen windows pass
/// through the cache between two flushes of a stream, as they do under
/// the serving pool).  Same streams, same events, same arithmetic; min of
/// `rounds` interleaved rounds per arm, fresh streams every round.
fn serve_locality(rounds: usize) -> [f64; 2] {
    use kalman::model::{events_of, StreamEvent};
    let opts = StreamOptions {
        lag: 32,
        flush_every: 8,
        covariances: true,
        policy: ExecPolicy::Seq,
        auto_flush: true,
        ..StreamOptions::default()
    };
    let models: Vec<_> = (0..LOCALITY_STREAMS as u64)
        .map(|s| panel_model(8, LOCALITY_STEPS - 1, 100 + s))
        .collect();
    let steps = (LOCALITY_STREAMS * LOCALITY_STEPS) as f64;
    let mut best = [f64::INFINITY; 2];
    for _ in 0..rounds {
        for (arm, best) in best.iter_mut().enumerate() {
            let mut streams: Vec<_> = models
                .iter()
                .map(|m| {
                    let p = m.prior.as_ref().expect("panel models carry priors");
                    StreamingSmoother::with_prior(p.mean.clone(), p.cov.clone(), opts)
                        .expect("valid options")
                })
                .collect();
            let mut events: Vec<std::vec::IntoIter<StreamEvent>> =
                models.iter().map(|m| events_of(m).into_iter()).collect();
            let t = Instant::now();
            if arm == 0 {
                for (stream, events) in streams.iter_mut().zip(&mut events) {
                    for event in events {
                        stream.ingest(event).expect("well-formed event");
                    }
                }
            } else {
                let mut live = true;
                while live {
                    live = false;
                    for (stream, events) in streams.iter_mut().zip(&mut events) {
                        if let Some(event) = events.next() {
                            stream.ingest(event).expect("well-formed event");
                            live = true;
                        }
                    }
                }
            }
            *best = best.min(t.elapsed().as_secs_f64() / steps);
            std::hint::black_box(&streams);
        }
    }
    best
}

fn smoke(args: &mut Args) {
    let k: usize = args.get("ksmoke", 20_000);
    let runs: usize = args.get("runs", 3);
    let json: String = args.get("json", String::new());

    let opts = OddEvenOptions {
        covariances: true,
        policy: ExecPolicy::Seq,
        compress_odd: true,
    };
    let rounds = runs.max(7);
    let mut entries = Vec::new();
    println!(
        "fig2 --smoke: single-thread batch odd-even smoother, k={k}, \
         interleaved mins of {rounds}, simd backend {}",
        kalman::dense::simd_backend()
    );
    print_row(&[
        "n".into(),
        "reference".into(),
        "blocked".into(),
        "speedup".into(),
    ]);
    for (n, seed) in [(4usize, 10u64), (8, 11), (16, 12)] {
        let model = panel_model(n, k, seed);
        // Interleaved A/B with min-of-rounds per arm: robust against the
        // coarse-grained throttling of the shared container, where whole
        // seconds can run ~1.5x slow and per-arm medians compare different
        // weather.  Reference arm: unblocked kernels, pooling off (the
        // pre-optimization configuration, measured in-process for an
        // apples-to-apples run).  Blocked arm: the default fast path.
        let mut t_ref = f64::INFINITY;
        let mut t_blk = f64::INFINITY;
        for _ in 0..rounds {
            kalman::dense::set_reference_kernels(true);
            kalman::dense::set_pooling(false);
            t_ref = t_ref.min(median_time(1, || {
                odd_even_smooth(&model, opts).expect("well-posed");
            }));
            kalman::dense::set_reference_kernels(false);
            kalman::dense::set_pooling(true);
            t_blk = t_blk.min(median_time(1, || {
                odd_even_smooth(&model, opts).expect("well-posed");
            }));
        }
        let speedup = t_ref / t_blk;
        print_row(&[
            n.to_string(),
            fmt_secs(t_ref),
            fmt_secs(t_blk),
            format!("{speedup:.2}x"),
        ]);
        entries.push(BenchEntry::new(format!("smoother/n{n}/reference"), t_ref));
        entries.push(BenchEntry::new(format!("smoother/n{n}/blocked"), t_blk));
        entries.push(BenchEntry::new(format!("speedup/n{n}"), speedup));
    }

    // Memory locality of the batch walk at the benchmark's large-state
    // shape: a warm plan's seconds per step on a chain that fits in cache
    // (k = 63) over one that does not (k = 2000, `batch_n48`'s).  Same
    // kernels, same arithmetic per step up to the chain ends, so what
    // separates the two is what the long chain spends waiting for memory.
    let per_step = {
        let mut arms = [63usize, 2000].map(|k| {
            let model = panel_model(48, k, 13);
            let mut plan = SmoothPlan::for_model(&model, opts).expect("valid model");
            let mut out = Smoothed {
                means: Vec::new(),
                covariances: None,
            };
            plan.smooth_model_into(&model, &mut out)
                .expect("well-posed");
            (model, plan, out, f64::INFINITY)
        });
        for _ in 0..rounds {
            for (model, plan, out, best) in arms.iter_mut() {
                // The short chain repeats so that both arms sample a
                // comparable stretch of the machine's weather.
                let reps = (2000 / model.num_states()).max(1);
                for _ in 0..reps {
                    let t = median_time(1, || {
                        plan.smooth_model_into(model, out).expect("well-posed");
                    });
                    *best = best.min(t / model.num_states() as f64);
                }
            }
        }
        arms.map(|(.., best)| best)
    };
    let locality = per_step[0] / per_step[1];
    println!(
        "n=48 warm plan, seconds per step: k=63 {:.3e}, k=2000 {:.3e}, \
         speedup/n48_locality {locality:.2}x",
        per_step[0], per_step[1]
    );
    entries.push(BenchEntry::new("smoother/n48/k63", per_step[0]));
    entries.push(BenchEntry::new("smoother/n48/k2000", per_step[1]));
    entries.push(BenchEntry::new("speedup/n48_locality", locality));

    // Memory locality of the serving flush: stream-major over round-robin
    // per-step time of sixteen serve_heavy-shaped streams.  Twice the
    // binary's rounds: a round of one arm is only ≈ 20–25 ms, and with the
    // same rounds as the rest this ratio alone strayed past its gate on
    // one run in several on a noisy runner.
    let locality_rounds = 2 * rounds;
    let per_step = serve_locality(locality_rounds);
    let serve_locality = per_step[0] / per_step[1];
    println!(
        "{LOCALITY_STREAMS} n=8 covariance streams, lag 32, flush 8, seconds per step: \
         stream-major {:.3e}, round-robin {:.3e}, speedup/serve_locality {serve_locality:.2}x",
        per_step[0], per_step[1]
    );
    entries.push(BenchEntry::new("stream/serve/stream_major", per_step[0]));
    entries.push(BenchEntry::new("stream/serve/round_robin", per_step[1]));
    entries.push(BenchEntry::new("speedup/serve_locality", serve_locality));

    let steady = steady_flush(9);
    println!("stream n=4, window 64: steady flush {steady:.2e} s");
    entries.push(BenchEntry::new("stream/steady_flush", steady));

    // Instrumentation overhead: the same steady-state flush measured with
    // the obs runtime switch off vs on, in interleaved rounds with
    // min-of-rounds per side (the A/B methodology of docs/BENCHMARKS.md).
    // The gated ratio is min_off/min_on — ~1.0 while the spans stay
    // cheap; instrumentation overhead growth drags it below the
    // bench_check floor.
    let obs_rounds = 5;
    let mut min_on = f64::INFINITY;
    let mut min_off = f64::INFINITY;
    for _ in 0..obs_rounds {
        kalman::obs::set_enabled(false);
        min_off = min_off.min(steady_flush(3));
        kalman::obs::set_enabled(true);
        min_on = min_on.min(steady_flush(3));
    }
    let obs_speedup = min_off / min_on;
    println!(
        "obs overhead (steady flush, {obs_rounds} interleaved rounds): metrics off \
         {min_off:.2e} s, on {min_on:.2e} s, speedup/obs_on {obs_speedup:.2}x"
    );
    entries.push(BenchEntry::new("obs/steady_flush_on", min_on));
    entries.push(BenchEntry::new("obs/steady_flush_off", min_off));
    entries.push(BenchEntry::new("speedup/obs_on", obs_speedup));

    if !json.is_empty() {
        let config = format!(
            "fig2 --smoke: odd-even, 1 thread, simd backend {}, k={k}, n in [4,8,16], interleaved \
             A/B mins of {rounds} rounds per pair (reference = unblocked kernels + \
             pooling off, blocked = default dispatch incl. SIMD/mono kernels); \
             smoother/n48/k63 + k2000: seconds per step of a warm \
             SmoothPlan::smooth_model_into at n=48 (covariances on), interleaved \
             mins of {rounds} rounds, speedup/n48_locality = k63 / k2000 (1.0 = the \
             long chain waits for memory no more than the one that fits in cache); \
             stream/serve/*: seconds per step of {LOCALITY_STREAMS} covariance streams \
             (n=8 observed through a square G, lag 32, flush_every 8, auto flush, \
             {LOCALITY_STEPS} steps each) fed stream-major vs round-robin, interleaved \
             mins of {locality_rounds} rounds, speedup/serve_locality = stream-major / \
             round-robin (1.0 = sixteen windows cost no more than one kept in cache); \
             stream/steady_flush: steady-state flush of a n=4 lag=32 \
             flush_every=32 stream (32 eliminations + a 64-step back \
             substitution); obs/* + speedup/obs_on: that flush with \
             instrumentation off vs on, interleaved mins of {obs_rounds} rounds; main-baseline/* and \
             vs-main/* rows (when present) are historical A/B measurements vs \
             pre-optimization main, carried in the baseline",
            kalman::dense::simd_backend()
        );
        kalman_bench::write_bench_json(&json, &config, &entries).expect("write json");
        println!("wrote {json}");
    }
}

fn main() {
    let mut args = Args::parse();
    if args.has("smoke") {
        smoke(&mut args);
        args.finish();
        return;
    }
    let paper = args.has("paper");
    let quick = args.has("quick");
    let (dk6, dk48) = if paper {
        (5_000_000, 100_000)
    } else if quick {
        (20_000, 2_000)
    } else {
        (500_000, 20_000)
    };
    let k6: usize = args.get("k6", dk6);
    let k48: usize = args.get("k48", dk48);
    let runs: usize = args.get("runs", if quick { 1 } else { 3 });
    args.finish();

    let cores = core_sweep();
    for (n, k, seed) in [(6usize, k6, 10u64), (48, k48, 11)] {
        println!("\n=== Figure 2 panel: n={n} k={k} (medians of {runs} runs) ===");
        eprintln!("building model n={n} k={k}…");
        let model = panel_model(n, k, seed);
        let records = run_sweep(&model, &cores, runs);

        let mut header = vec!["cores".to_string()];
        header.extend(Algorithm::ALL.iter().map(|a| a.name().to_string()));
        print_row(&header);
        for &c in &cores {
            let mut row = vec![c.to_string()];
            for alg in Algorithm::ALL {
                let t = if alg.is_parallel() {
                    time_of(&records, alg, c)
                } else {
                    // Sequential algorithms: one flat line, as in the paper.
                    time_of(&records, alg, 1)
                };
                row.push(t.map(fmt_secs).unwrap_or_else(|| "-".into()));
            }
            print_row(&row);
        }
        print_overheads(n, k, &records);
    }
    println!("\n(times in seconds; sequential algorithms are flat lines, as in the paper)");
}

/// The §5.4 single-core overhead table for one panel, read off the sweep's
/// one-core row: each parallel algorithm over its sequential counterpart.
/// Ratios above 1 are the price of parallelism (more arithmetic).
fn print_overheads(n: usize, k: usize, records: &[Record]) {
    use Algorithm::*;
    println!("\nSingle-core overhead (paper §5.4), n={n} k={k}:");
    print_row(&["ratio".into(), "measured".into(), "paper".into()]);
    for (label, par, seq, paper) in [
        ("OddEven/PS", OddEven, PaigeSaunders, "1.8-2.5x"),
        ("OE-NC/PS-NC", OddEvenNc, PaigeSaundersNc, "1.8-2.0x"),
        ("Assoc/Kalman", Associative, Kalman, "1.8-2.7x"),
    ] {
        let ratio = time_of(records, par, 1).zip(time_of(records, seq, 1));
        print_row(&[
            label.into(),
            ratio.map_or_else(|| "-".into(), |(p, s)| format!("{:.2}x", p / s)),
            paper.into(),
        ]);
    }
}
