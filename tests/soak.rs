//! Soak: a long-running stream must not drift.  The incremental flush
//! never re-factors a window from raw data — every prior is the product of
//! all the eliminations before it — so rounding could, in principle,
//! accumulate with stream length.  This test runs one stream for a long
//! time and periodically re-derives its latest finalized batch from
//! scratch.  Nor may it grow: it allocates nothing in steady state, and
//! its resident set may not grow by more than [`RSS_GROWTH_KIB`] after
//! warm-up.

use kalman::alloc_stats::thread_alloc_count;
use kalman::dense::random;
use kalman::model::LinearModel;
use kalman::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::VecDeque;
use std::sync::Mutex;

const N: usize = 3;
const LAG: usize = 16;
const FLUSH_EVERY: usize = 4;
/// Steps behind the lag window the reference batch solve starts from.  The
/// model contracts information by ≈ 0.38 per step, so what came before is
/// irrelevant far below 1e-12 and the reference needs no prior — it is
/// independent of the stream's head, the thing under test.
const RUN_UP: usize = 120;
/// How far the process's resident set may grow from the first check
/// against the batch re-solve (the warm-up: every buffer a check or a flush
/// needs has been taken once) to the end of the run.
const RSS_GROWTH_KIB: u64 = 2048;

/// One soak at a time, so neither reads the other's memory in its RSS.
static ONE_SOAK: Mutex<()> = Mutex::new(());

/// The process's resident set (`VmRSS`) in KiB, or `None` where
/// `/proc/self/status` does not exist.
fn rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Streams `steps` steps generated on the fly (no long model in memory) and
/// checks every `check_every`-th flush against a batch re-solve of the
/// trailing `RUN_UP + LAG` steps.
fn soak(steps: usize, check_every: usize) {
    // A soak that panicked left nothing behind that the next one reads.
    let _alone = ONE_SOAK.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = ChaCha8Rng::seed_from_u64(2024);
    let f = random::orthonormal(&mut rng, N);
    let g = random::orthonormal(&mut rng, N);
    let opts = StreamOptions {
        lag: LAG,
        flush_every: FLUSH_EVERY,
        covariances: true,
        // Manual flushes on the auto-flush cadence, into a reused buffer:
        // `evolve`'s own flush returns a fresh `Vec` by contract.
        auto_flush: false,
        ..StreamOptions::default()
    };
    let mut stream = StreamingSmoother::new(N, opts).unwrap();
    let mut trailing: VecDeque<LinearStep> = VecDeque::with_capacity(RUN_UP + LAG + 1);
    let mut finalized: Vec<FinalizedStep> = Vec::new();
    let mut errors = Vec::with_capacity(steps / check_every + 1);
    let mut stream_allocs_second_half = 0u64;
    let mut rss_warm = None;

    for i in 0..steps {
        let evolution = (i > 0).then(|| Evolution {
            f: f.clone(),
            h: None,
            c: vec![0.0; N],
            noise: CovarianceSpec::Identity(N),
        });
        let observation = Observation {
            g: g.clone(),
            o: random::gaussian_vec(&mut rng, N),
            noise: CovarianceSpec::Identity(N),
        };

        // The copy the reference keeps, made outside the measured region.
        let mut step = match &evolution {
            Some(evolution) => LinearStep::evolving(evolution.clone()),
            None => LinearStep::initial(N),
        };
        step.observation = Some(observation.clone());

        let allocs_before = thread_alloc_count();
        let flushed = stream.ready();
        if flushed {
            stream.flush_into(&mut finalized).unwrap();
        }
        if let Some(evolution) = evolution {
            stream.evolve(evolution).unwrap();
        }
        stream.observe(observation).unwrap();
        if i >= steps / 2 {
            stream_allocs_second_half += thread_alloc_count() - allocs_before;
        }
        assert!(stream.buffered_len() <= opts.window_capacity());
        assert!(stream.eliminated_len() < stream.buffered_len());

        // The flush above saw steps up to `i − 1`: exactly `trailing`.
        if flushed && i % check_every < FLUSH_EVERY && i > RUN_UP + LAG {
            errors.push(max_error_against_batch(&finalized, &trailing, i - 1));
            if errors.len() == 1 {
                rss_warm = rss_kib();
            }
        }

        if trailing.len() == RUN_UP + LAG {
            trailing.pop_front();
        }
        trailing.push_back(step);
    }

    assert!(errors.len() >= steps / check_every - 1, "{errors:?}");
    for (c, e) in errors.iter().enumerate() {
        assert!(*e <= 1e-8, "checkpoint {c}: error {e:e}");
    }
    // No growth with stream length.  The floor keeps two readings of pure
    // rounding noise (≈ 1e-15) from failing the ratio by chance.
    let (first, last) = (errors[0], errors[errors.len() - 1]);
    assert!(
        last <= 10.0 * first.max(1e-14),
        "error grew from {first:e} to {last:e}: {errors:?}"
    );
    assert_eq!(
        stream_allocs_second_half, 0,
        "the stream allocated in steady state"
    );
    match (rss_warm, rss_kib()) {
        (Some(warm), Some(end)) => {
            let growth = end.saturating_sub(warm);
            println!("VmRSS {warm} KiB after warm-up, {end} KiB after {steps} steps");
            assert!(
                growth <= RSS_GROWTH_KIB,
                "resident set grew {growth} KiB ({warm} → {end}) over {steps} steps"
            );
        }
        _ => println!("no /proc/self/status here: RSS growth not checked"),
    }
}

/// Largest deviation (means and covariances) of `finalized` from the batch
/// smooth of `trailing`, whose last step has global index `newest`.
fn max_error_against_batch(
    finalized: &[FinalizedStep],
    trailing: &VecDeque<LinearStep>,
    newest: usize,
) -> f64 {
    let mut model = LinearModel::new();
    for (j, step) in trailing.iter().enumerate() {
        let mut step = step.clone();
        if j == 0 {
            step.evolution = None;
        }
        model.push_step(step);
    }
    let batch = odd_even_smooth(&model, OddEvenOptions::default()).unwrap();
    let first = newest + 1 - trailing.len();
    assert_eq!(finalized.len(), FLUSH_EVERY);
    let mut worst = 0.0f64;
    for f in finalized {
        let j = f.index as usize - first;
        assert!(j >= RUN_UP - FLUSH_EVERY, "reference run-up too short");
        for (a, b) in f.mean.iter().zip(batch.mean(j)) {
            worst = worst.max((a - b).abs());
        }
        let cov = f.covariance.as_ref().unwrap();
        worst = worst.max(cov.max_abs_diff(batch.covariance(j).unwrap()));
    }
    worst
}

#[test]
fn fifty_thousand_steps_do_not_drift() {
    soak(50_000, 10_000);
}

/// The long form, for release builds: `cargo test --release -p kalman
/// --test soak -- --ignored`.
#[test]
#[ignore = "a million steps: run in release"]
fn a_million_steps_do_not_drift() {
    soak(1_000_000, 100_000);
}
