//! Bitwise determinism of the parallel paths under the real work-stealing
//! pool.
//!
//! The odd-even walks fork a fixed tree: every node's computation depends
//! only on its children's results and writes slots assigned before it ran
//! (as the other parallel primitives' ordered collects do).  So
//! `ExecPolicy::par()` must produce results
//! **bitwise identical** to `ExecPolicy::Seq` — for any thread count, any
//! grain, and any steal interleaving.  These tests pin that contract now
//! that scheduling is genuinely concurrent; a data race or a
//! reduction-order change regresses loudly here.

use kalman::associative::associative_filter;
use kalman::model::{generators, LinearModel};
use kalman::par::{run_with_threads, ExecPolicy};
use kalman::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const THREADS: [usize; 4] = [1, 2, 4, 8];
const GRAINS: [usize; 3] = [1, 10, 1000];

/// Asserts two smoother outputs are bitwise identical (no tolerance).
fn assert_bitwise(seq: &Smoothed, par: &Smoothed, what: &str) {
    assert_eq!(seq.len(), par.len(), "{what}: length");
    for i in 0..seq.len() {
        assert!(
            seq.mean(i) == par.mean(i),
            "{what}: state {i} means differ bitwise"
        );
        match (seq.covariance(i), par.covariance(i)) {
            (None, None) => {}
            (Some(a), Some(b)) => assert!(
                a.max_abs_diff(b) == 0.0,
                "{what}: state {i} covariances differ bitwise"
            ),
            _ => panic!("{what}: state {i} covariance presence differs"),
        }
    }
}

/// Odd-even smoother + SelInv covariances across the thread × grain matrix.
#[test]
fn odd_even_and_selinv_are_bitwise_equal_to_sequential() {
    let mut rng = ChaCha8Rng::seed_from_u64(4100);
    let model = generators::paper_benchmark(&mut rng, 3, 400, true);
    let seq = odd_even_smooth(
        &model,
        OddEvenOptions {
            covariances: true,
            policy: ExecPolicy::Seq,
            ..OddEvenOptions::default()
        },
    )
    .unwrap();
    for threads in THREADS {
        for grain in GRAINS {
            let par = run_with_threads(threads, || {
                odd_even_smooth(
                    &model,
                    OddEvenOptions {
                        covariances: true,
                        policy: ExecPolicy::par_with_grain(grain),
                        ..OddEvenOptions::default()
                    },
                )
                .unwrap()
            });
            assert_bitwise(&seq, &par, &format!("threads={threads} grain={grain}"));
        }
    }
}

/// The walk forks wherever a subtree outgrows the grain, so which nodes
/// fork — and whether a lone tail child rides along — depends on the chain
/// length.  Both sides of every small power of two, lengths whose halvings
/// leave an odd chain at several depths, and a dimension-changing model
/// (every second state one wider) must all come out bitwise equal to the
/// sequential recursion at every pool size and grain.
#[test]
fn every_tree_shape_is_bitwise_equal_to_sequential() {
    let lengths = (2..=6)
        .flat_map(|m| [(1usize << m) - 1, 1 << m, (1 << m) + 1])
        .chain([11, 23, 45, 91, 107]);
    for k1 in lengths {
        let mut rng = ChaCha8Rng::seed_from_u64(4600 + k1 as u64);
        let models = [
            generators::paper_benchmark(&mut rng, 3, k1 - 1, true),
            generators::dimension_change(&mut rng, 2, k1 - 1),
        ];
        for (which, model) in models.iter().enumerate() {
            let smooth = |policy| odd_even_smooth(model, OddEvenOptions::with_policy(policy));
            let seq = smooth(ExecPolicy::Seq).unwrap();
            for threads in [1usize, 2, 8] {
                for grain in [1usize, 3, 10, 1000] {
                    let par = run_with_threads(threads, || {
                        smooth(ExecPolicy::par_with_grain(grain)).unwrap()
                    });
                    assert_bitwise(
                        &seq,
                        &par,
                        &format!("model {which} k+1={k1} threads={threads} grain={grain}"),
                    );
                }
            }
        }
    }
}

/// The level-3 dense kernels must not disturb the bitwise Seq-vs-Par
/// contract.  Neither size has a monomorphized body: at n = 24 every
/// SelInv product runs on the register-tile GEMM and the inverse-Gram and
/// multi-column solves are blocked; at n = 48 the eliminations
/// additionally run the compact-WY tri-stack.  Each kernel is a pure
/// function of its operands, so the arithmetic is identical regardless of
/// scheduling.
#[test]
fn blocked_kernels_stay_bitwise_equal_across_policies() {
    for (n, k, seed) in [(24usize, 60usize, 4101u64), (48, 40, 4102)] {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let model = generators::paper_benchmark(&mut rng, n, k, true);
        let seq = odd_even_smooth(
            &model,
            OddEvenOptions {
                covariances: true,
                policy: ExecPolicy::Seq,
                ..OddEvenOptions::default()
            },
        )
        .unwrap();
        for threads in THREADS {
            for grain in [1usize, 10] {
                let par = run_with_threads(threads, || {
                    odd_even_smooth(
                        &model,
                        OddEvenOptions {
                            covariances: true,
                            policy: ExecPolicy::par_with_grain(grain),
                            ..OddEvenOptions::default()
                        },
                    )
                    .unwrap()
                });
                assert_bitwise(
                    &par,
                    &seq,
                    &format!("blocked kernels, n={n} threads={threads} grain={grain}"),
                );
            }
        }
    }
}

/// The SIMD-width-aware and const-generic monomorphized kernels are pure
/// functions of their inputs — lane width changes *which* arithmetic runs,
/// never the order it runs in across tasks — so with SIMD active and the
/// dense entry points taking their monomorphized bodies on these square
/// blocks, `ExecPolicy::par()` must stay bitwise identical to
/// `ExecPolicy::Seq` at every monomorphized width.
#[test]
fn simd_and_mono_kernels_stay_bitwise_equal_across_policies() {
    for (n, k, seed) in [(4usize, 90usize, 4400u64), (8, 70, 4401), (16, 50, 4402)] {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let model = generators::paper_benchmark(&mut rng, n, k, true);
        let mono_before = kalman::dense::kernel_dispatch_counts().2;
        let seq = odd_even_smooth(
            &model,
            OddEvenOptions {
                covariances: true,
                policy: ExecPolicy::Seq,
                ..OddEvenOptions::default()
            },
        )
        .unwrap();
        // The smooth must actually reach a monomorphized body, otherwise
        // this pin silently degrades to the blocked-kernel test.  The
        // counter is process-wide and monotone, so a concurrent test can
        // only add to it.
        if !kalman::dense::reference_kernels() {
            assert!(
                kalman::dense::kernel_dispatch_counts().2 > mono_before,
                "n={n}: no monomorphized body ran"
            );
        }
        for threads in [2usize, 8] {
            for grain in [1usize, 10] {
                let par = run_with_threads(threads, || {
                    odd_even_smooth(
                        &model,
                        OddEvenOptions {
                            covariances: true,
                            policy: ExecPolicy::par_with_grain(grain),
                            ..OddEvenOptions::default()
                        },
                    )
                    .unwrap()
                });
                assert_bitwise(
                    &seq,
                    &par,
                    &format!("mono n={n}, threads={threads} grain={grain}"),
                );
            }
        }
    }
}

/// Both associative scans run `kalman-par`'s fixed combine tree under every
/// policy, and parallel execution writes pre-assigned slots — so the
/// smoother and the filter alone must satisfy the same bitwise Seq≡Par
/// contract the odd-even smoother does, across the full thread × grain
/// matrix.
#[test]
fn associative_scan_is_bitwise_equal_to_sequential() {
    let mut rng = ChaCha8Rng::seed_from_u64(4500);
    let model = generators::paper_benchmark(&mut rng, 3, 400, true);
    let smooth = |policy| associative_smooth(&model, AssociativeOptions { policy }).unwrap();
    let filter = |policy| {
        let (means, covs) = associative_filter(&model, AssociativeOptions { policy }).unwrap();
        Smoothed {
            means,
            covariances: Some(covs),
        }
    };
    let (seq_smooth, seq_filter) = (smooth(ExecPolicy::Seq), filter(ExecPolicy::Seq));
    for threads in THREADS {
        for grain in GRAINS {
            let policy = ExecPolicy::par_with_grain(grain);
            let (par_smooth, par_filter) =
                run_with_threads(threads, || (smooth(policy), filter(policy)));
            let what = format!("threads={threads} grain={grain}");
            assert_bitwise(&seq_smooth, &par_smooth, &format!("scan smoother {what}"));
            assert_bitwise(&seq_filter, &par_filter, &format!("scan filter {what}"));
        }
    }
}

/// Drives `models` through a pool under `policy`, returning each stream's
/// finalized means in order.
fn drive_pool(models: &[LinearModel], policy: ExecPolicy) -> Vec<Vec<Vec<f64>>> {
    let opts = StreamOptions {
        lag: 16,
        flush_every: 4,
        covariances: false,
        policy: ExecPolicy::Seq, // within-window; the pool batches across
        ..StreamOptions::default()
    };
    let mut pool = SmootherPool::new(policy);
    let ids: Vec<StreamId> = models
        .iter()
        .map(|m| {
            let p = m.prior.as_ref().unwrap();
            pool.insert(StreamingSmoother::with_prior(p.mean.clone(), p.cov.clone(), opts).unwrap())
        })
        .collect();
    let mut out: Vec<Vec<Vec<f64>>> = vec![Vec::new(); models.len()];
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
            out[k].extend(steps.unwrap().into_iter().map(|f| f.mean));
        }
    }
    for (k, id) in ids.iter().enumerate() {
        let (tail, _) = pool.finish(*id).unwrap();
        out[k].extend(tail.into_iter().map(|f| f.mean));
    }
    out
}

/// `SmootherPool::poll` batches across streams with `for_each_mut`; under
/// any pool size and grain the per-stream outputs must be bitwise those of
/// the sequential batch loop.
#[test]
fn smoother_pool_poll_is_bitwise_deterministic() {
    let mut rng = ChaCha8Rng::seed_from_u64(4200);
    let models: Vec<LinearModel> = (0..6)
        .map(|_| generators::paper_benchmark(&mut rng, 2, 120, true))
        .collect();
    let reference = drive_pool(&models, ExecPolicy::Seq);
    assert_eq!(reference.iter().map(Vec::len).sum::<usize>(), 6 * 121);
    for threads in THREADS {
        for grain in GRAINS {
            let got = run_with_threads(threads, || {
                drive_pool(&models, ExecPolicy::par_with_grain(grain))
            });
            assert!(
                got == reference,
                "pool output changed under threads={threads} grain={grain}"
            );
        }
    }
}

/// Pooled polls flush via the allocation-free `poll_into` batch, whose
/// entries and finalized-step slots are reused from poll to poll.  The
/// slot-reusing batch may not perturb a single bit relative to the
/// sequential loop.
#[test]
fn pooled_polls_into_a_reused_batch_are_bitwise_deterministic() {
    let mut rng = ChaCha8Rng::seed_from_u64(4300);
    let models: Vec<LinearModel> = (0..6)
        .map(|_| generators::paper_benchmark(&mut rng, 2, 120, true))
        .collect();
    let opts = StreamOptions {
        lag: 16,
        flush_every: 4,
        covariances: false,
        policy: ExecPolicy::Seq,
        ..StreamOptions::default()
    };

    let drive = |policy: ExecPolicy| -> Vec<Vec<Vec<f64>>> {
        let mut pool = SmootherPool::new(policy);
        let ids: Vec<StreamId> = models
            .iter()
            .map(|m| {
                let p = m.prior.as_ref().unwrap();
                pool.insert(
                    StreamingSmoother::with_prior(p.mean.clone(), p.cov.clone(), opts).unwrap(),
                )
            })
            .collect();
        let mut out: Vec<Vec<Vec<f64>>> = vec![Vec::new(); models.len()];
        let mut batch = PollBatch::new();
        for si in 0..models[0].num_states() {
            for (k, model) in models.iter().enumerate() {
                let step = &model.steps[si];
                if si > 0 {
                    pool.evolve(ids[k], step.evolution.clone().unwrap())
                        .unwrap();
                }
                if let Some(obs) = &step.observation {
                    pool.observe(ids[k], obs.clone()).unwrap();
                }
            }
            pool.poll_into(&mut batch);
            for entry in batch.entries() {
                let k = ids.iter().position(|x| *x == entry.id()).unwrap();
                out[k].extend(entry.result().unwrap().iter().map(|f| f.mean.clone()));
            }
        }
        for (k, id) in ids.iter().enumerate() {
            let (tail, _) = pool.finish(*id).unwrap();
            out[k].extend(tail.into_iter().map(|f| f.mean));
        }
        out
    };

    let reference = drive(ExecPolicy::Seq);
    assert_eq!(reference.iter().map(Vec::len).sum::<usize>(), 6 * 121);
    for threads in THREADS {
        for grain in GRAINS {
            let got = run_with_threads(threads, || drive(ExecPolicy::par_with_grain(grain)));
            assert!(
                got == reference,
                "poll_into output changed under threads={threads} grain={grain}"
            );
        }
    }
}

/// Scheduler stress: `join` nested inside `install`, recursing deep enough
/// to guarantee stealing, while several OS threads run their own pools
/// (plus the global one) concurrently.
#[test]
fn nested_joins_and_concurrent_pools_stress() {
    fn pairwise_sum(range: std::ops::Range<u64>) -> u64 {
        let len = range.end - range.start;
        if len <= 5 {
            range.sum()
        } else {
            let mid = range.start + len / 2;
            let (a, b) = rayon::join(
                || pairwise_sum(range.start..mid),
                || pairwise_sum(mid..range.end),
            );
            a + b
        }
    }

    let handles: Vec<_> = (0..4)
        .map(|t| {
            std::thread::spawn(move || {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(1 + t)
                    .build()
                    .unwrap();
                for _ in 0..10 {
                    let n = 20_000u64;
                    assert_eq!(pool.install(|| pairwise_sum(0..n)), n * (n - 1) / 2);
                }
            })
        })
        .collect();
    // The calling thread hammers the global pool at the same time.
    for _ in 0..10 {
        let n = 10_000u64;
        assert_eq!(pairwise_sum(0..n), n * (n - 1) / 2);
    }
    for h in handles {
        h.join().unwrap();
    }
}
