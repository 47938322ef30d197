//! One benchmark for the batch, serving and cluster paths (see README.md).
//!
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//! workload in this process and prints its metrics, the last line being
//! the JSON result.  `--all` and `--selfcheck` run every workload, each in
//! a fresh child process re-exec'd from this binary.

mod batch;
mod cluster;
mod gen;
mod json;
mod probes;
mod report;
mod selfcheck;
mod serve;
mod spec;
mod stats;
mod trace;

use batch::{Batch, Phases};
use report::{Report, END_TO_END, PER_LAYER};
use serve::{Checker, Inputs, RoundB, Served};
use spec::{Kind, Spec, COMPARE_K};
use stats::{median, percentile, sort, Weather};
use std::path::PathBuf;
use std::time::Instant;
use trace::Tracer;

/// Where traces, the self-check table and the cluster's sockets go: the
/// benchmark's own `out/` directory, named relative to the working
/// directory when run from the repository root (short enough for a Unix
/// socket path wherever the checkout lives).
pub fn out_dir() -> PathBuf {
    let dir = if std::path::Path::new("benchmark/Cargo.toml").is_file() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
    };
    std::fs::create_dir_all(&dir).expect("create benchmark/out");
    dir
}

/// A per-round figure, kept apart for rounds run with the tracer off and
/// with it on.
#[derive(Default)]
struct OffOn {
    off: Vec<f64>,
    on: Vec<f64>,
}

impl OffOn {
    fn push(&mut self, traced: bool, value: f64) {
        if traced { &mut self.on } else { &mut self.off }.push(value);
    }

    fn untraced(&self) -> f64 {
        median(&self.off)
    }

    /// Traced over untraced; 1 when no round was traced.
    fn overhead_ratio(&self) -> f64 {
        if self.on.is_empty() {
            1.0
        } else {
            median(&self.on) / median(&self.off)
        }
    }
}

/// What a path's rounds gave: the end-to-end figures (medians over the
/// untraced rounds) and traced over untraced `steps_per_s`.
struct PathResult {
    setup_s: f64,
    steps_per_s: f64,
    latency_p50_us: f64,
    trace_overhead: f64,
}

/// Everything one run accumulates.
struct Run {
    spec: Spec,
    seed: u64,
    seconds: f64,
    traced: bool,
    report: Report,
    weather: Weather,
    tr: Tracer,
}

impl Run {
    /// Before a cycle: read the weather, and in a traced run switch the
    /// tracer on for every second cycle.
    fn begin_cycle(&mut self, what: &str, round: usize) -> bool {
        self.weather.check(format!("{what} {round}"));
        let on = self.traced && round % 2 == 1;
        self.tr.set_on(on);
        on
    }

    fn set_end_to_end(&mut self, path: &PathResult) {
        self.report.set("setup_s", path.setup_s);
        self.report.set("steps_per_s", path.steps_per_s);
        self.report
            .set("finalize_latency_p50_us", path.latency_p50_us);
        self.report
            .set("bench.trace_overhead_ratio", path.trace_overhead);
    }

    // ---- batch -----------------------------------------------------

    /// The batch path, in cycles of one set-up (generate the model, build
    /// the plan, warm-up smooth) and three warm ops, until `--seconds`
    /// (at least three cycles) — so set-up and ops both sample the whole
    /// run's weather.  The first result is checked against
    /// Paige–Saunders, every other bitwise against the first.  A traced
    /// run does fewer cycles, then the same smooth phase by phase and the
    /// single-core comparison.
    fn batch_main(&mut self) {
        let (spec, seed) = (self.spec, self.seed);
        let (min_cycles, budget) = if self.traced { (2, 0.25) } else { (3, 1.0) };
        let (mut setup_s, mut op_s) = (Vec::new(), OffOn::default());
        let mut held: Option<Batch> = None;
        let mut first = None;
        let start = Instant::now();
        while setup_s.len() < min_cycles || start.elapsed().as_secs_f64() < budget * self.seconds {
            self.weather.check(format!("cycle {}", setup_s.len()));
            drop(held.take());
            let t = Instant::now();
            let b = held.insert(Batch::new(
                gen::batch_model(seed, spec.n, spec.batch_k),
                spec.covariances,
            ));
            setup_s.push(t.elapsed().as_secs_f64());
            let first = first.get_or_insert_with(|| {
                self.report
                    .count(1, u64::from(!b.agrees_with_paige_saunders()));
                b.out.clone()
            });
            for op in 0..3 {
                self.weather
                    .check(format!("cycle {} op {op}", setup_s.len() - 1));
                op_s.push(false, b.smooth());
                self.report
                    .count(1, u64::from(!batch::same_bits(first, &b.out)));
            }
        }
        let mut b = held.expect("at least one cycle");
        if self.traced {
            self.tr.set_on(true);
            let p = self.batch_section(&mut b, 3);
            op_s.push(true, p.whole);
            let small = gen::batch_model(seed, spec.n, spec.batch_k.min(COMPARE_K));
            probes::compare(&small, spec.covariances, &mut self.report);
        }
        self.set_end_to_end(&PathResult {
            setup_s: median(&setup_s),
            steps_per_s: b.steps() as f64 / op_s.untraced(),
            latency_p50_us: op_s.untraced() * 1e6,
            // `op_s` holds seconds per op; the ratio is of steps per second.
            trace_overhead: 1.0 / op_s.overhead_ratio(),
        });
    }

    /// `model` and `odd_even`: the phases of one smooth of `b`.
    fn batch_section(&mut self, b: &mut Batch, reps: usize) -> Phases {
        let p = batch::phases(b, reps, &mut self.tr, &mut self.weather);
        let r = &mut self.report;
        r.set("model.whiten_s", p.whiten);
        r.set("odd_even.plan_build_s", p.plan_build);
        r.set("odd_even.factor_s", p.factor);
        r.set("odd_even.solve_s", p.solve);
        r.set("odd_even.selinv_s", p.selinv);
        r.set(
            "odd_even.phase_sum_ratio",
            p.sum_ratio(self.spec.covariances),
        );
        p
    }

    // ---- serving ---------------------------------------------------

    /// The serving path, in cycles of one set-up (generate the events,
    /// build the pool, serve three windows per stream so plans and
    /// workspaces are warm), one closed-loop round (phase A) and one
    /// open-loop round (phase B), until `budget_s` (at least `min_cycles`)
    /// — so all three sample the whole run's weather.  In a traced run
    /// also the rate ladder and the `serve` layer metrics.  Returns the
    /// last cycle's inputs with the result.
    fn serve_section(
        &mut self,
        steps: usize,
        checker: &mut Checker,
        budget_s: f64,
        min_cycles: usize,
    ) -> (PathResult, Inputs) {
        let (spec, seed) = (self.spec, self.seed);
        let stream_steps = (spec.streams * steps) as f64;

        let (mut setup_s, mut steps_per_s) = (Vec::new(), OffOn::default());
        let (mut wall_a, mut producers_s, mut events_a, mut throttled) = (0.0, 0.0, 0, 0);
        let mut drains_us = Vec::new();
        let mut rounds = Vec::new();
        let mut last = None;
        let start = Instant::now();
        while rounds.len() < min_cycles || start.elapsed().as_secs_f64() < budget_s {
            let on = self.begin_cycle("serve cycle", rounds.len());
            drop(last.take());
            let t = Instant::now();
            let inputs = Inputs::generate(seed, &spec, steps);
            let mut served = Served::new();
            let warm = 2 * 3 * spec.window();
            self.tr.span("bench.setup", trace::NO_OP, |tr| {
                serve::phase_a_round(&spec, &mut served, &inputs, warm, checker, tr)
            });
            setup_s.push(t.elapsed().as_secs_f64());

            self.weather.check(format!("phase A {}", rounds.len()));
            let tr = &mut self.tr;
            let a = serve::phase_a_round(&spec, &mut served, &inputs, usize::MAX, checker, tr);
            steps_per_s.push(on, stream_steps / a.wall_s);
            wall_a += a.wall_s;
            producers_s += a.producers_s;
            events_a += a.events;
            drains_us.extend(a.drains_us);
            throttled += served.pool.stats().aggregate().throttled;

            self.weather.check(format!("phase B {}", rounds.len()));
            let tr = &mut self.tr;
            let b = serve::phase_b_round(&spec, spec.rate_eps, &mut served, &inputs, checker, tr);
            self.report.count(a.events + b.events, b.refused);
            rounds.push(b);
            last = Some((inputs, served));
        }
        let (inputs, mut served) = last.expect("at least one cycle");
        let p50s: Vec<f64> = rounds.iter().map(RoundB::p50).collect();

        if self.traced {
            // The rate ladder: if the nominal rate holds, try twice it;
            // if not, half of it.
            let holds =
                |b: &RoundB| b.p99() <= 5_000.0 && b.refused == 0 && b.end_lag_us() <= 5_000.0;
            let mut ladder = |factor: f64| {
                self.begin_cycle("rate ladder", 0);
                let rate = factor * spec.rate_eps;
                let tr = &mut self.tr;
                let b = serve::phase_b_round(&spec, rate, &mut served, &inputs, checker, tr);
                self.report.count(b.events, b.refused);
                holds(&b).then_some(rate)
            };
            let max_ok_rate = if rounds.iter().all(holds) {
                ladder(2.0).unwrap_or(spec.rate_eps)
            } else {
                ladder(0.5).unwrap_or(0.0)
            };

            sort(&mut drains_us);
            let merged = |pick: fn(&RoundB) -> &Vec<f64>| {
                let mut all: Vec<f64> = rounds
                    .iter()
                    .flat_map(|b| pick(b).iter().copied())
                    .collect();
                sort(&mut all);
                all
            };
            let (latency, lag) = (merged(|b| &b.latency_us), merged(|b| &b.lag_us));
            let pool_s = serve::pool_replay(&spec, &inputs, checker);
            let r = &mut self.report;
            r.set("serve.submit_ns", producers_s * 1e9 / events_a as f64);
            r.set("serve.drain_us_p50", percentile(&drains_us, 0.5));
            r.set(
                "serve.drain_share",
                drains_us.iter().sum::<f64>() / 1e6 / wall_a,
            );
            r.set(
                "serve.events_per_drain",
                events_a as f64 / drains_us.len() as f64,
            );
            r.set("serve.throttled_ratio", throttled as f64 / events_a as f64);
            r.set(
                "serve.overhead_ratio",
                stream_steps / steps_per_s.untraced() / pool_s,
            );
            r.set("serve.finalize_latency_p99_us", percentile(&latency, 0.99));
            r.set("serve.finalize_latency_samples", latency.len() as f64);
            r.set("serve.max_ok_rate_eps", max_ok_rate);
            r.set("bench.generator_lag_p99_us", percentile(&lag, 0.99));
        }
        let result = PathResult {
            setup_s: median(&setup_s),
            steps_per_s: steps_per_s.untraced(),
            latency_p50_us: median(&p50s),
            trace_overhead: steps_per_s.overhead_ratio(),
        };
        (result, inputs)
    }

    /// `stream` and `obs`: the direct replay timed around every flush, the
    /// pool replay over the untimed direct replay (`direct_s`), and the
    /// observability switch.  `window` holds the phases of one window.
    fn stream_section(
        &mut self,
        inputs: &Inputs,
        checker: &mut Checker,
        direct_s: f64,
        window: &Phases,
    ) {
        let spec = self.spec;
        self.tr.set_on(true);
        let p = serve::stream_probe(&spec, inputs, &mut self.tr);
        let pool_s = serve::pool_replay(&spec, inputs, checker);
        let advance_s = self
            .report
            .get("model.infohead_advance_ns")
            .expect("probed before")
            / 1e9;
        let selinv = if spec.covariances { window.selinv } else { 0.0 };
        let parts = window.whiten
            + window.factor
            + window.solve
            + selinv
            + spec.flush_every as f64 * advance_s;
        let r = &mut self.report;
        r.set("stream.ingest_ns", p.ingest_ns);
        r.set("stream.flush_us", p.flush_us);
        r.set("stream.flush_share", p.flush_share);
        r.set("stream.flush_self_ratio", p.flush_us / 1e6 / parts);
        r.set("stream.pool_overhead_ratio", pool_s / direct_s);
        r.set("stream.plan_builds", p.plan_builds as f64);
        r.set(
            "obs.enabled_overhead_ratio",
            serve::obs_overhead_ratio(&spec, inputs),
        );
    }

    // ---- cluster ---------------------------------------------------

    /// The cluster path, in cycles of one set-up (generate the events,
    /// start a supervisor and its workers, send three windows per stream)
    /// and one round, until `budget_s` (at least `min_cycles`).  In a
    /// traced run also the in-process rounds, the crash recoveries and the
    /// `cluster` layer metrics.
    fn cluster_section(
        &mut self,
        steps: usize,
        checker: &mut Checker,
        budget_s: f64,
        min_cycles: usize,
    ) -> PathResult {
        let (spec, seed) = (self.spec, self.seed);
        let stream_steps = (spec.streams * steps) as f64;
        let (mut setup_s, mut steps_per_s) = (Vec::new(), OffOn::default());
        let (mut send_us, mut poll_ms, mut slow, mut p50s) = (vec![], vec![], vec![], vec![]);
        let mut restarts = 0;
        let start = Instant::now();
        while setup_s.len() < min_cycles || start.elapsed().as_secs_f64() < budget_s {
            let on = self.begin_cycle("cluster cycle", setup_s.len());
            let t = Instant::now();
            let inputs = Inputs::generate(seed, &spec, steps);
            let mut sup = cluster::new_supervisor();
            let warm = 2 * 3 * spec.window();
            self.tr.span("bench.setup", trace::NO_OP, |tr| {
                cluster::cluster_round(&spec, &mut sup, &inputs, warm, 0, checker, tr)
            });
            setup_s.push(t.elapsed().as_secs_f64());

            self.weather
                .check(format!("cluster round {}", setup_s.len() - 1));
            let (tr, key) = (&mut self.tr, spec.streams as u64);
            let mut c =
                cluster::cluster_round(&spec, &mut sup, &inputs, usize::MAX, key, checker, tr);
            self.report.count(c.events, 0);
            steps_per_s.push(on, stream_steps / c.wall_s);
            slow.push(c.send_slow_share());
            sort(&mut c.latency_us);
            p50s.push(percentile(&c.latency_us, 0.5));
            send_us.extend(c.send_us);
            poll_ms.extend(c.poll_ms);
            restarts += sup.stats().restarts.iter().sum::<u32>();
            sup.shutdown();
        }
        if self.traced {
            let inputs = Inputs::generate(seed, &spec, steps);
            let mut served = Served::new();
            let inproc: Vec<f64> = (0..3)
                .map(|_| cluster::inproc_round(&spec, &mut served, &inputs, checker))
                .collect();
            self.tr.set_on(true);
            let recovery = cluster::recovery_ms(&spec, &inputs, &mut self.tr);
            let cluster_s = stream_steps / steps_per_s.untraced();
            let r = &mut self.report;
            r.set("cluster.send_us_p50", median(&send_us));
            r.set("cluster.send_slow_share", median(&slow));
            r.set("cluster.poll_ms", median(&poll_ms));
            r.set("cluster.inproc_ratio", median(&inproc) / cluster_s);
            r.set("cluster.recovery_ms", recovery);
            r.set("cluster.restarts", f64::from(restarts));
        }
        PathResult {
            setup_s: median(&setup_s),
            steps_per_s: steps_per_s.untraced(),
            latency_p50_us: median(&p50s),
            trace_overhead: steps_per_s.overhead_ratio(),
        }
    }

    // ---- one run ---------------------------------------------------

    fn run(mut self) -> bool {
        let (spec, seed) = (self.spec, self.seed);
        // Steps per stream of the serving inputs, i.e. the length of a
        // round: at least five cycles must fit in `--seconds`, so a short
        // run shrinks its rounds, not their number.  A few windows when
        // the inputs only feed a traced run's probes.
        let probe_steps = 4 * spec.window();
        let steps = match spec.kind {
            Kind::Batch => probe_steps,
            // An open-loop round of 0.75 s (with set-up and the
            // closed-loop round, about 1.2 s a cycle).
            Kind::Serve => {
                let round_s = (self.seconds / 13.0).min(0.75);
                let events = round_s * spec.rate_eps / spec.streams as f64;
                (events as usize / 2).max(probe_steps)
            }
            // About 0.7 s a round at the ≈13k steps/s this path sized at.
            Kind::Cluster => ((self.seconds * 14.0).min(140.0) as usize).max(probe_steps),
        };
        // The oracle for every serving output of this run.
        let oracle = |steps| serve::reference_replay(&spec, &Inputs::generate(seed, &spec, steps));
        let (reference, direct_s) = if self.traced || spec.kind != Kind::Batch {
            oracle(steps)
        } else {
            Default::default()
        };
        let mut checker = Checker::new(&reference);

        // The workload's own path.
        let share = if self.traced { 0.5 } else { 1.0 };
        let mut inputs = None;
        match spec.kind {
            Kind::Batch => self.batch_main(),
            Kind::Serve => {
                let (path, last) = self.serve_section(steps, &mut checker, share * self.seconds, 5);
                self.set_end_to_end(&path);
                inputs = Some(last);
            }
            Kind::Cluster => {
                let path = self.cluster_section(steps, &mut checker, share * self.seconds, 5);
                self.set_end_to_end(&path);
            }
        }

        if self.traced {
            // Every other layer, probed at this workload's shape.
            let inputs = inputs.unwrap_or_else(|| Inputs::generate(seed, &spec, steps));
            let model = gen::batch_model(seed, spec.n, spec.window() - 1);
            probes::dense(spec.n, &mut self.report);
            probes::infohead_advance(&model, &mut self.report);
            let pair = [inputs.sources[0].event(0), inputs.sources[0].event(1)];
            probes::wire(&pair, &mut self.report);
            let mut window = Batch::new(model.clone(), spec.covariances);
            let phases = if spec.kind == Kind::Batch {
                // `model`, `odd_even`, `seq`, ... come from the batch model.
                self.tr.set_on(false);
                batch::phases(&mut window, 50, &mut self.tr, &mut self.weather)
            } else {
                self.tr.set_on(true);
                probes::compare(&model, spec.covariances, &mut self.report);
                self.batch_section(&mut window, 50)
            };
            self.stream_section(&inputs, &mut checker, direct_s, &phases);
            if spec.kind != Kind::Serve {
                self.serve_section(steps, &mut checker, 0.0, 2);
            }
            if spec.kind != Kind::Cluster {
                // On a few windows: a serving workload's own inputs would
                // take minutes through the cluster.
                let (reference, _) = oracle(probe_steps);
                let mut few = Checker::new(&reference);
                self.cluster_section(probe_steps, &mut few, 0.0, 2);
                self.report.count(0, few.failed);
            }
        }

        self.report.count(0, checker.failed);
        let noisy = self.weather.noisy_rounds();
        for (round, factor) in &noisy {
            println!("noisy round: {round} (calibration {factor:.2}x the run's median)");
        }
        let slowness = if spec.reference_clock {
            self.weather.slowness()
        } else {
            1.0
        };
        self.report.set("bench.calib_ns", self.weather.calib_ns());
        self.report.set("bench.slowness", slowness);
        self.report.set("bench.noisy_rounds", noisy.len() as f64);
        self.report.set("peak_rss_mb", stats::peak_rss_mb());
        if self.traced {
            let path = out_dir().join(format!("trace-{}.json", spec.name));
            self.tr.write(&path).expect("write trace");
            println!("trace: {}", path.display());
        }
        let catalogue = if self.traced { PER_LAYER } else { END_TO_END };
        self.report.print(spec.name, catalogue, slowness)
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: kalman-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]\n\
         \x20      kalman-benchmark --all [--seed N] [--seconds S]\n\
         \x20      kalman-benchmark --selfcheck [--runs N] [--seed N] [--seconds S]\n\
         workloads: {}",
        spec::WORKLOADS.map(|w| w.name).join(", ")
    );
    std::process::exit(2)
}

fn main() {
    // A process the supervisor re-exec'd as a shard worker never returns
    // from this call; in every other process it is a no-op.
    kalman::cluster::worker_entry_from_env();

    let mut args = std::env::args().skip(1);
    let (mut workload, mut all, mut check) = (None, false, false);
    let (mut seed, mut seconds, mut trace, mut runs) = (1u64, 10.0f64, false, 3usize);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => trace = value() == "1",
            "--runs" => runs = value().parse().unwrap_or_else(|_| usage()),
            "--all" => all = true,
            "--selfcheck" => check = true,
            _ => usage(),
        }
    }
    // Worker sockets (`std::env::temp_dir`) stay inside the checkout.
    std::env::set_var("TMPDIR", out_dir());

    let ok = if check {
        selfcheck::selfcheck(seed, seconds, runs.max(3))
    } else if all {
        selfcheck::run_all(seed, seconds)
    } else {
        let spec = workload
            .as_deref()
            .and_then(Spec::by_name)
            .unwrap_or_else(|| usage());
        Run {
            spec,
            seed,
            seconds,
            traced: trace,
            report: Report::default(),
            weather: Weather::default(),
            tr: Tracer::new(false),
        }
        .run()
    };
    std::process::exit(i32::from(!ok));
}
