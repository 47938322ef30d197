//! `--all` and `--selfcheck`: every workload, each run in a fresh child
//! process re-exec'd from this binary.

use crate::json::{parse, Value};
use crate::spec::WORKLOADS;
use crate::stats::{median, spread};
use std::fmt::Write as _;
use std::process::Command;

/// The result line of one child run.
struct Outcome {
    correct: bool,
    /// `(name, value)` in catalogue order.
    metrics: Vec<(String, f64)>,
}

/// Runs one workload in a child process; its report goes to our stdout.
fn child(workload: &str, seed: u64, seconds: f64, traced: bool, echo: bool) -> Outcome {
    let exe = std::env::current_exe().expect("own path");
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if traced { "1" } else { "0" },
        ])
        .output()
        .expect("spawn child run");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let (report, line) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    if echo {
        println!("{report}");
    }
    let failed = Outcome {
        correct: false,
        metrics: Vec::new(),
    };
    let Ok(doc) = parse(line) else {
        eprintln!("{workload}: no result line (exit {:?})", out.status.code());
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        return failed;
    };
    let metrics = doc.get("metrics").map(Value::members).unwrap_or_default();
    Outcome {
        correct: out.status.success() && doc.get("correct").and_then(Value::as_bool) == Some(true),
        metrics: metrics
            .iter()
            .map(|(name, m)| {
                let value = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
                (name.clone(), value)
            })
            .collect(),
    }
}

/// `--all`: every workload untraced (end-to-end metrics) and traced
/// (per-layer metrics).  `true` when every run checked out.
pub fn run_all(seed: u64, seconds: f64) -> bool {
    let mut ok = true;
    for w in WORKLOADS {
        for traced in [false, true] {
            ok &= child(w.name, seed, seconds, traced, true).correct;
        }
    }
    println!(
        "all workloads {}",
        if ok { "correct" } else { "NOT correct" }
    );
    ok
}

/// `--selfcheck`: the acceptance rule applied to this build against
/// itself.  Two sets of `runs` untraced runs per workload (every run its
/// own seed, the sets interleaved); for each end-to-end metric the spread
/// of each set (interquartile distance over median; not `setup_s`) and the
/// amount by which the second median is worse than the first must stay
/// within the metric's bound in `BENCHMARK.json`.  The table is printed
/// and written to `out/selfcheck.md`.
pub fn selfcheck(seed: u64, seconds: f64, runs: usize) -> bool {
    let contract = parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
    let declared = contract
        .get("end_to_end")
        .map(Value::items)
        .unwrap_or_default();
    let mut ok = true;
    let mut table = "| workload | metric | median A | median B | B worse by | spread A | spread B \
                     | bound | |\n|---|---|---|---|---|---|---|---|---|\n"
        .to_string();
    for w in WORKLOADS {
        let mut sets = [Vec::new(), Vec::new()];
        for i in 0..runs as u64 {
            for (set, offset) in sets.iter_mut().zip([0, runs as u64]) {
                let outcome = child(w.name, seed + offset + i, seconds, false, false);
                ok &= outcome.correct;
                set.push(outcome);
            }
        }
        for m in declared {
            let field = |k| m.get(k).and_then(Value::as_str).expect("string field");
            let (name, lower) = (field("name"), field("better") == "lower");
            let bound = m.get("bound").and_then(Value::as_f64).expect("bound");
            let values = |set: &[Outcome]| -> Vec<f64> {
                set.iter()
                    .filter_map(|o| o.metrics.iter().find(|x| x.0 == name).map(|x| x.1))
                    .collect()
            };
            let (a, b) = (values(&sets[0]), values(&sets[1]));
            if a.len() < runs || b.len() < runs {
                ok = false;
                continue;
            }
            let (med_a, med_b) = (median(&a), median(&b));
            let worse = if lower {
                med_b / med_a - 1.0
            } else {
                1.0 - med_b / med_a
            };
            let (spread_a, spread_b) = (spread(&a), spread(&b));
            let steady = name == "setup_s" || spread_a.max(spread_b) <= bound;
            let pass = steady && worse <= bound;
            ok &= pass;
            let _ = writeln!(
                table,
                "| {} | {name} | {med_a:.6} | {med_b:.6} | {:+.1} % | {:.1} % | {:.1} % | {:.0} % | {} |",
                w.name,
                worse * 100.0,
                spread_a * 100.0,
                spread_b * 100.0,
                bound * 100.0,
                if pass { "ok" } else { "FAIL" }
            );
        }
    }
    let verdict = if ok { "agree" } else { "DISAGREE" };
    let text = format!(
        "Self-check: two sets of {runs} runs per workload, {seconds} s each, seeds from {seed}.\n\
         The two sets {verdict}.\n\n{table}"
    );
    print!("{text}");
    std::fs::write(crate::out_dir().join("selfcheck.md"), text).expect("write selfcheck.md");
    ok
}
