//! Figure 4: speedups of the four phases of an embarrassingly-parallel
//! micro-benchmark that characterizes the hardware and the scheduler:
//!
//! 1. allocate k step structures, storing their addresses in an array,
//! 2. allocate a 2n×n matrix per step,
//! 3. fill every matrix with `A_ij = i + j`,
//! 4. QR-factorize every matrix.
//!
//! Each phase is a separate `parallel_for` with block size 8 (the paper's
//! choice, to avoid false sharing in phase 1).
//!
//! `cargo run --release -p kalman-bench --bin fig4_microbench \
//!     [--n 48] [--k 20000] [--runs 3]`
//!
//! `--smoke` runs the CI-sized kernel microbenchmark instead: blocked GEMM
//! versus the reference loop nest across block sizes, the fused QR
//! (`QrFactor::new_applying`) versus factor-then-apply below the
//! `QR_FUSED_MAX_COLS` crossover, the level-3 bodies (compact-WY tri-stack,
//! blocked back substitution, blocked inverse-Gram) versus the unblocked
//! ones at batch dimensions, the monomorphized SIMD kernels versus the
//! scalar oracle (GEMM at n ∈ {4, 8}, tri-stack at n ∈ {8, 16}), plus the
//! serving flush's forward step through the general bodies versus the
//! fixed-size one; each pair is
//! measured as interleaved A/B rounds with per-arm minima (the noise-robust
//! methodology of docs/BENCHMARKS.md), single-threaded; `--json PATH`
//! records the timings and speedups (`BENCH_kernels.json` in CI) with the
//! SIMD backend they ran on.

use kalman::dense::{
    gemm, gemm_ref, qr_trap_stack_applying, qr_tri_stack_applying, qr_tri_stack_applying_with,
    simd_backend, tri, KernelKind, Matrix, QrFactor, Trans,
};
use kalman::par::{for_each_mut, run_with_threads, ExecPolicy};
use kalman_bench::{core_sweep, median_time, print_row, time_once, Args, BenchEntry};

/// Deterministic full-rank test matrix (no RNG needed in the kernel
/// sweep); shared with the dense crate's kernel oracle tests.
fn test_matrix(m: usize, n: usize) -> Matrix {
    kalman::dense::random::deterministic_well_conditioned(m, n)
}

/// Interleaved A/B measurement: alternates the two arms round by round and
/// returns each arm's minimum.  On a shared, noisy runner either arm can be
/// stalled in any given round, but the interleaved min converges to the
/// true cost of each side under the *same* conditions — medians of
/// back-to-back blocks don't.
fn ab_min(rounds: usize, mut a: impl FnMut() -> f64, mut b: impl FnMut() -> f64) -> (f64, f64) {
    let (mut ta, mut tb) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..rounds {
        ta = ta.min(a());
        tb = tb.min(b());
    }
    (ta, tb)
}

fn push_pair(entries: &mut Vec<BenchEntry>, name: &str, arms: (&str, &str), t_a: f64, t_b: f64) {
    print_row(&[
        name.into(),
        format!("{:.3e}", t_a),
        format!("{:.3e}", t_b),
        format!("{:.2}x", t_a / t_b),
    ]);
    entries.push(BenchEntry::new(format!("{name}/{}", arms.0), t_a));
    entries.push(BenchEntry::new(format!("{name}/{}", arms.1), t_b));
    entries.push(BenchEntry::new(format!("{name}/speedup"), t_a / t_b));
}

fn smoke(args: &mut Args) {
    let runs: usize = args.get("runs", 5);
    let rounds = runs.max(7); // interleaved A/B needs several alternations
    let json: String = args.get("json", String::new());
    let mut entries = Vec::new();

    println!(
        "fig4 --smoke: dense kernel microbenchmark (single thread, interleaved mins of {rounds}, \
         simd backend {})",
        simd_backend()
    );
    print_row(&[
        "kernel".into(),
        "reference".into(),
        "tuned".into(),
        "speedup".into(),
    ]);

    // GEMM: C = A·B at n×n·n, repeated to amortize timer resolution.
    for n in [8usize, 16, 24, 48, 96, 192] {
        let a = test_matrix(n, n);
        let b = test_matrix(n, n);
        let mut c_ref = Matrix::zeros(n, n);
        let mut c_blk = Matrix::zeros(n, n);
        let reps = (4_000_000 / (n * n * n)).max(1);
        let (t_ref, t_blk) = ab_min(
            rounds,
            || {
                time_once(|| {
                    for _ in 0..reps {
                        gemm_ref(1.0, &a, Trans::No, &b, Trans::No, 0.0, &mut c_ref);
                    }
                })
                .0 / reps as f64
            },
            || {
                time_once(|| {
                    for _ in 0..reps {
                        gemm(1.0, &a, Trans::No, &b, Trans::No, 0.0, &mut c_blk);
                    }
                })
                .0 / reps as f64
            },
        );
        push_pair(
            &mut entries,
            &format!("gemm/n{n}"),
            ("reference", "blocked"),
            t_ref,
            t_blk,
        );
    }

    // QR: factor a 2n×n stack and apply Qᵀ to a 2n×(n+1) companion — the
    // odd-even elimination's primitive — with the companion update fused
    // into the factorization vs factor + separate sweep.  Only sizes below
    // QR_FUSED_MAX_COLS are measured: from there up `new_applying` *is*
    // factor-then-apply, and both arms would run the same code.
    for n in [8usize, 16, 24] {
        let a = test_matrix(2 * n, n);
        let b = test_matrix(2 * n, n + 1);
        let reps = (2_000_000 / (n * n * n)).max(1);
        let (t_ref, t_fused) = ab_min(
            rounds,
            || {
                time_once(|| {
                    for _ in 0..reps {
                        let qr = QrFactor::new(a.clone());
                        let mut rhs = b.clone();
                        qr.apply_qt(&mut rhs);
                        std::hint::black_box(&rhs);
                    }
                })
                .0 / reps as f64
            },
            || {
                time_once(|| {
                    for _ in 0..reps {
                        let mut rhs = b.clone();
                        let qr = QrFactor::new_applying(a.clone(), &mut [&mut rhs]);
                        std::hint::black_box(&qr);
                    }
                })
                .0 / reps as f64
            },
        );
        push_pair(
            &mut entries,
            &format!("qr/n{n}"),
            ("reference", "fused"),
            t_ref,
            t_fused,
        );
    }

    // Level-3 bodies vs the unblocked ones at batch dimensions.  Tri-stack:
    // the triangle-on-square elimination with one (n+1)-wide companion
    // pair; the unblocked arm is `qr_trap_stack_applying` on the same
    // square stack, which runs the unblocked SIMD body at every size (its
    // staircase phase has nothing to do when the "trapezoid" is square).
    for n in [32usize, 48, 96] {
        let r0 = QrFactor::new(test_matrix(n, n)).r();
        let d0 = test_matrix(n, n);
        let top0 = test_matrix(n, n + 1);
        let reps = (2_000_000 / (n * n * n)).max(1);
        type Eliminate = fn(&mut Matrix, &mut Matrix, &mut [(&mut Matrix, &mut Matrix)]);
        let run = |eliminate: Eliminate| {
            time_once(|| {
                for _ in 0..reps {
                    let (mut r, mut d) = (r0.clone(), d0.clone());
                    let (mut top, mut bot) = (top0.clone(), top0.clone());
                    eliminate(&mut r, &mut d, &mut [(&mut top, &mut bot)]);
                    std::hint::black_box(&r);
                }
            })
            .0 / reps as f64
        };
        let (t_unblocked, t_blocked) = ab_min(
            rounds,
            || run(qr_trap_stack_applying),
            || run(qr_tri_stack_applying),
        );
        push_pair(
            &mut entries,
            &format!("tri_stack/n{n}"),
            ("unblocked", "blocked"),
            t_unblocked,
            t_blocked,
        );
    }
    // Triangular solve on n right-hand sides and the inverse-Gram, the two
    // triangular kernels of a SelInv block row; the unblocked arm is the
    // same call on the scalar oracle (`set_reference_kernels(true)`).
    {
        let n = 48;
        let u = QrFactor::new(test_matrix(n, n)).r();
        let b0 = test_matrix(n, n);
        let reps = 40;
        let solve = || {
            time_once(|| {
                for _ in 0..reps {
                    let mut x = b0.clone();
                    tri::solve_upper_in_place(&u, &mut x).expect("nonsingular");
                    std::hint::black_box(&x);
                }
            })
            .0 / reps as f64
        };
        let inv_gram = || {
            time_once(|| {
                for _ in 0..reps {
                    std::hint::black_box(tri::inv_gram_upper(&u).expect("nonsingular"));
                }
            })
            .0 / reps as f64
        };
        let on_oracle = |f: &dyn Fn() -> f64| {
            kalman::dense::set_reference_kernels(true);
            let t = f();
            kalman::dense::set_reference_kernels(false);
            t
        };
        let kernels: [(&str, &dyn Fn() -> f64); 2] =
            [("trsm/n48", &solve), ("inv_gram/n48", &inv_gram)];
        for (name, kernel) in kernels {
            let (t_ref, t_blk) = ab_min(rounds, || on_oracle(kernel), kernel);
            push_pair(&mut entries, name, ("unblocked", "blocked"), t_ref, t_blk);
        }
    }

    // Monomorphized SIMD kernels vs the scalar oracle at the serving
    // dimensions.  GEMM compares the `KernelKind`-bound monomorphic entry
    // (the pointer a uniform-n plan binds at plan time) against the scalar
    // reference loop nest (at n = 16 that pointer is the tile `gemm`, which
    // the `gemm/n16` row above already times); QR compares the monomorphized
    // triangular-stack elimination against the same routine with the runtime
    // kernel switch forced to the scalar reference path.
    println!("monomorphized SIMD kernels vs scalar oracle:");
    print_row(&[
        "kernel".into(),
        "scalar".into(),
        "simd/mono".into(),
        "speedup".into(),
    ]);
    for n in [4usize, 8] {
        let kind = KernelKind::for_dim(n);
        let mono = kind.gemm();
        let a = test_matrix(n, n);
        let b = test_matrix(n, n);
        let mut c_ref = Matrix::zeros(n, n);
        let mut c_simd = Matrix::zeros(n, n);
        let reps = (4_000_000 / (n * n * n)).max(1);
        let (t_scalar, t_simd) = ab_min(
            rounds,
            || {
                time_once(|| {
                    for _ in 0..reps {
                        gemm_ref(1.0, &a, Trans::No, &b, Trans::No, 0.0, &mut c_ref);
                    }
                })
                .0 / reps as f64
            },
            || {
                time_once(|| {
                    for _ in 0..reps {
                        mono(1.0, &a, Trans::No, &b, Trans::No, 0.0, &mut c_simd);
                    }
                })
                .0 / reps as f64
            },
        );
        push_pair(
            &mut entries,
            &format!("gemm/n{n}/simd"),
            ("scalar", "mono"),
            t_scalar,
            t_simd,
        );
    }
    // (No n = 4 row: `qr_tri_stack_applying_with` has no specialized body
    // there — the hint falls through to the dynamic one.)
    for n in [8usize, 16] {
        let kind = KernelKind::for_dim(n);
        let r0 = QrFactor::new(test_matrix(n, n)).r();
        let d0 = test_matrix(n, n);
        let top0 = test_matrix(n, n + 1);
        let bot0 = test_matrix(n, n + 1);
        let reps = (1_000_000 / (n * n * n)).max(1);
        let (t_scalar, t_mono) = ab_min(
            rounds,
            || {
                kalman::dense::set_reference_kernels(true);
                let t = time_once(|| {
                    for _ in 0..reps {
                        let (mut r, mut d) = (r0.clone(), d0.clone());
                        let (mut top, mut bot) = (top0.clone(), bot0.clone());
                        qr_tri_stack_applying(&mut r, &mut d, &mut [(&mut top, &mut bot)]);
                        std::hint::black_box(&r);
                    }
                })
                .0 / reps as f64;
                kalman::dense::set_reference_kernels(false);
                t
            },
            || {
                time_once(|| {
                    for _ in 0..reps {
                        let (mut r, mut d) = (r0.clone(), d0.clone());
                        let (mut top, mut bot) = (top0.clone(), bot0.clone());
                        qr_tri_stack_applying_with(
                            kind,
                            &mut r,
                            &mut d,
                            &mut [(&mut top, &mut bot)],
                        );
                        std::hint::black_box(&r);
                    }
                })
                .0 / reps as f64
            },
        );
        push_pair(
            &mut entries,
            &format!("qr/n{n}/mono"),
            ("scalar", "mono"),
            t_scalar,
            t_mono,
        );
    }

    // The serving flush's forward step at the harness's shapes (a full
    // head, `G`, `F` n × n, `H = I`, identity noises): absorb → eliminate →
    // sweep terms through the general calls vs the fixed-size body
    // behind `InfoHead::step_into`, each over one chain of steps.  n = 4
    // without the terms and n = 8 with them, as `serve_light` and
    // `serve_heavy` run it.
    println!("forward step, general bodies vs fixed-size columns:");
    print_row(&[
        "kernel".into(),
        "general".into(),
        "fused".into(),
        "speedup".into(),
    ]);
    for (n, terms) in [(4usize, false), (8, true)] {
        let (t_general, t_fused) = ab_min(
            rounds,
            || forward_chain(n, terms, false),
            || forward_chain(n, terms, true),
        );
        push_pair(
            &mut entries,
            &format!("fwd_step/n{n}"),
            ("general", "fused"),
            t_general,
            t_fused,
        );
    }

    if !json.is_empty() {
        let depth = |d: Option<usize>| d.map_or("none (unblocked)".to_string(), |d| d.to_string());
        let square_depths = [32, 48, 96].map(|n| {
            let d = depth(kalman::dense::tri_stack_panel_depth(n, n, n + 1));
            format!("n{n} {d}")
        });
        let config = format!(
            "fig4 --smoke: dense kernels, 1 thread, simd backend {}, interleaved A/B mins of \
             {rounds} rounds per pair; gemm rows: register-tile GEMM vs reference loop nest; qr rows: fused \
             new_applying vs factor-then-apply at n in [8,16,24], all below the \
             QR_FUSED_MAX_COLS = 32 crossover; tri_stack rows: compact-WY vs unblocked \
             SIMD body, one (n+1)-wide companion pair, panel depth {}; trsm/inv_gram rows: \
             blocked vs the scalar oracle at n = 48; gemm/nK/simd + qr/nK/mono rows: \
             monomorphized SIMD kernels vs the scalar oracle at the serving dimensions; \
             fwd_step rows: with_observation + eliminate (+ sweep terms X, A, b at n = 8) vs \
             InfoHead::step_into on fixed-size columns, {FORWARD_CHAIN} chained steps",
            simd_backend(),
            square_depths.join(", "),
        );
        kalman_bench::write_bench_json(&json, &config, &entries).expect("write json");
        println!("wrote {json}");
    }
}

/// Steps per timed chain of [`forward_chain`].
const FORWARD_CHAIN: usize = 20_000;

/// Seconds per forward step over a chain of [`FORWARD_CHAIN`] steps of the
/// paper's §5.2 problem at dimension `n` (random orthonormal `F` and `G`,
/// unit covariances): each step absorbs the observation, eliminates the
/// state and — with `terms` — forms the row's sweep terms `X`, `A`, `b`, and the
/// head it leaves feeds the next.  `fused` runs `InfoHead::step_into`
/// into storage kept across steps, as a stream's ring does; otherwise the
/// general calls run one after the other.
fn forward_chain(n: usize, terms: bool, fused: bool) -> f64 {
    use kalman::model::{
        generators::paper_benchmark, EliminatedRows, InfoHead, WhitenedEvo, WhitenedObs,
    };
    use rand::SeedableRng;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(23);
    let model = paper_benchmark(&mut rng, n, 1, true);
    let prior = model.prior.as_ref().expect("generated with a prior");
    let step = &model.steps[1];
    let obs = step.observation.as_ref().expect("every step observed");
    let evolution = step.evolution.as_ref().expect("step 1 evolves");
    let evo = WhitenedEvo::from_evolution(evolution, n, 1).expect("unit covariance");
    let mut head = InfoHead::from_prior(prior).expect("unit covariance");
    let mut next = InfoHead::empty(n);
    let mut whitened = WhitenedObs::default();
    let mut rows = EliminatedRows::default();
    let (mut x, mut a, mut b) = (Matrix::default(), Matrix::default(), Matrix::default());
    let t = time_once(|| {
        for i in 0..FORWARD_CHAIN {
            if fused {
                whitened.assign(obs, i).expect("unit covariance");
                let terms = terms.then_some((&mut x, &mut a, &mut b));
                head.step_into(Some(&whitened), &evo, &mut rows, terms, &mut next);
                std::mem::swap(&mut head, &mut next);
            } else {
                let posterior = head.with_observation(obs, i).expect("unit covariance");
                let (kept, advanced) = posterior.eliminate(&evo);
                if terms {
                    let kept = kept.as_ref().expect("a prior determines every state");
                    x.clone_from(&kept.off);
                    tri::solve_upper_in_place(&kept.diag, &mut x).expect("full rank");
                    a = tri::inv_gram_upper(&kept.diag).expect("full rank");
                    b.clone_from(&kept.rhs);
                    tri::solve_upper_in_place(&kept.diag, &mut b).expect("full rank");
                }
                rows = kept.unwrap_or_default();
                head = advanced;
            }
        }
        std::hint::black_box((&head, &rows, &x, &a, &b));
    })
    .0;
    t / FORWARD_CHAIN as f64
}

/// A step structure, heap-allocated like the paper's array-of-pointers.
struct Step {
    matrix: Option<Matrix>,
    qr: Option<QrFactor>,
}

fn main() {
    let mut args = Args::parse();
    if args.has("smoke") {
        smoke(&mut args);
        args.finish();
        return;
    }
    let n: usize = args.get("n", 48);
    let k: usize = args.get("k", 20_000);
    let runs: usize = args.get("runs", 3);
    args.finish();

    let policy = ExecPolicy::par_with_grain(8);
    println!("Figure 4: embarrassingly-parallel micro-benchmark, n={n} k={k}");

    let phase_names = [
        "Allocate Structure",
        "Allocate Matrix",
        "Fill Matrix",
        "QR Factorization",
    ];
    let cores = core_sweep();
    // times[phase][core_idx]
    let mut times = vec![vec![0.0f64; cores.len()]; 4];

    for (ci, &c) in cores.iter().enumerate() {
        let measured: [f64; 4] = run_with_threads(c, move || {
            let mut t = [0.0f64; 4];
            // Phase 1: allocate the structures.
            let mut steps: Vec<Box<Step>> = Vec::new();
            t[0] = median_time(runs, || {
                let mut v: Vec<Box<Step>> = Vec::with_capacity(k);
                for _ in 0..k {
                    v.push(Box::new(Step {
                        matrix: None,
                        qr: None,
                    }));
                }
                // Parallel touch to mirror the paper's parallel_for shape.
                for_each_mut(policy, &mut v, |_, s| {
                    s.matrix = None;
                });
                steps = v;
            });
            // Phase 2: allocate a 2n×n matrix per step.
            t[1] = median_time(runs, || {
                for_each_mut(policy, &mut steps, |_, s| {
                    s.matrix = Some(Matrix::zeros(2 * n, n));
                });
            });
            // Phase 3: fill A_ij = i + j.
            t[2] = median_time(runs, || {
                for_each_mut(policy, &mut steps, |_, s| {
                    let m = s.matrix.as_mut().expect("allocated in phase 2");
                    for j in 0..n {
                        let col = m.col_mut(j);
                        for (i, v) in col.iter_mut().enumerate() {
                            *v = (i + j) as f64;
                        }
                    }
                });
            });
            // Phase 4: QR-factorize each matrix.
            t[3] = median_time(runs, || {
                for_each_mut(policy, &mut steps, |_, s| {
                    let m = s.matrix.as_ref().expect("allocated in phase 2").clone();
                    s.qr = Some(QrFactor::new(m));
                });
            });
            t
        });
        for p in 0..4 {
            times[p][ci] = measured[p];
        }
        eprintln!(
            "  cores {c:>2}: {:?}",
            measured.map(|x| (x * 1e3).round() / 1e3)
        );
    }

    println!("\nspeedup vs 1 core:");
    let mut header = vec!["cores".to_string()];
    header.extend(phase_names.iter().map(|s| s.to_string()));
    print_row(&header);
    for (ci, &c) in cores.iter().enumerate() {
        let mut row = vec![c.to_string()];
        for phase_times in &times {
            row.push(format!("{:.2}x", phase_times[0] / phase_times[ci]));
        }
        print_row(&row);
    }
    println!("\n(paper: QR scales near-linearly; allocation/fill phases are memory-bound and scale poorly)");
}
