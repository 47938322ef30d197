//! Interleaved A/B pairs of two prebuilt end-to-end benchmark binaries
//! (`benchmark/`'s `kalman-benchmark`), one process at a time.
//!
//! Pair `i` runs both binaries on `--workload` with seed `--seed + i`,
//! the parent first in even pairs and the change first in odd ones.  Each
//! run prints `steps/s`, p50, setup, RSS, `attempted`, `bench.slowness`
//! and the wall-clock values; the end is one summary line per end-to-end
//! metric (medians, pair-ratio median, "change better in k/N", the
//! parent's IQR, and the bound read from `BENCHMARK.json`, with whether a
//! claimed gain would hold — see `kalman_bench::ab`).
//!
//! `cargo run --release -p kalman-bench --bin harness_ab -- \
//!     --parent <parent>/benchmark/target/release/kalman-benchmark \
//!     --change benchmark/target/release/kalman-benchmark \
//!     --workload serve_heavy --pairs 10 --seed 9001 [--seconds 20] \
//!     [--spec BENCHMARK.json]`

use kalman_bench::ab::{parse_run, read_bounds, summarize, RunResult, END_TO_END};
use kalman_bench::Args;
use std::process::Command;

fn run(binary: &str, workload: &str, seed: u64, seconds: f64) -> RunResult {
    let output = Command::new(binary)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .output()
        .unwrap_or_else(|e| panic!("cannot start {binary}: {e}"));
    let stdout = String::from_utf8_lossy(&output.stdout);
    match (output.status.success(), parse_run(&stdout)) {
        (true, Some(result)) => result,
        _ => panic!(
            "{binary} --workload {workload} --seed {seed} failed ({}):\n{}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ),
    }
}

fn describe(r: &RunResult) -> String {
    let [setup, steps, p50, rss] = r.metrics;
    let mut line = format!(
        "steps/s {steps:.0}  p50 {p50:.2} us  setup {:.2} ms  rss {rss:.2} MiB  attempted {}  failed {}",
        setup * 1e3,
        r.attempted,
        r.failed
    );
    if let Some(slowness) = r.slowness {
        line += &format!("  slowness {slowness:.3}");
    }
    if let [Some(setup), Some(steps), Some(p50)] = r.wall {
        line += &format!(
            "  (wall: steps/s {steps:.0}  p50 {p50:.2} us  setup {:.2} ms)",
            setup * 1e3
        );
    }
    line
}

fn main() {
    let mut args = Args::parse();
    let parent: String = args.get("parent", String::new());
    let change: String = args.get("change", String::new());
    let workload: String = args.get("workload", String::new());
    let pairs: u64 = args.get("pairs", 10);
    let seed: u64 = args.get("seed", 1);
    let seconds: f64 = args.get("seconds", 20.0);
    let spec: String = args.get("spec", "BENCHMARK.json".to_string());
    args.finish();
    assert!(
        !parent.is_empty() && !change.is_empty() && !workload.is_empty() && pairs >= 2,
        "usage: harness_ab --parent <binary> --change <binary> --workload <name> \
         [--pairs 10] [--seed 1] [--seconds 20] [--spec BENCHMARK.json]"
    );
    let text = std::fs::read_to_string(&spec).unwrap_or_else(|e| panic!("read {spec}: {e}"));
    let bounds = read_bounds(&text);
    for name in END_TO_END {
        assert!(
            bounds.iter().any(|b| b.name == name),
            "{spec} has no end_to_end entry {name}"
        );
    }

    let mut results: Vec<(RunResult, RunResult)> = Vec::new();
    for i in 0..pairs {
        let seed = seed + i;
        let parent_first = i % 2 == 0;
        let order = if parent_first {
            [&parent, &change]
        } else {
            [&change, &parent]
        };
        let [first, second] = order.map(|binary| run(binary, &workload, seed, seconds));
        let (p, c) = if parent_first {
            (first, second)
        } else {
            (second, first)
        };
        let side = if parent_first { "p" } else { "c" };
        println!("pair {} seed {seed} ({side} first)", i + 1);
        println!("  parent  {}", describe(&p));
        println!("  change  {}", describe(&c));
        results.push((p, c));
    }

    println!("{workload} ({pairs} pairs):");
    for (m, name) in END_TO_END.iter().enumerate() {
        let bound = bounds.iter().find(|b| b.name == *name).expect("bound");
        let pairs: Vec<(f64, f64)> = results
            .iter()
            .map(|(p, c)| (p.metrics[m], c.metrics[m]))
            .collect();
        println!("  {}", summarize(bound, &pairs));
    }
    let failed: u64 = results.iter().map(|(p, c)| p.failed + c.failed).sum();
    println!("  failed ops {failed}");
}
