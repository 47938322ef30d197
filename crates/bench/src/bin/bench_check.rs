//! CI regression gate for the `BENCH_*.json` artifacts.
//!
//! Compares the speedup entries of a freshly measured artifact against the
//! checked-in baseline and fails (exit 1) when any speedup regressed more
//! than `--tol` (default 0.20, the ">20%" gate) or is missing from the
//! current artifact.  Speedups — blocked kernels + workspace pooling versus
//! the in-process reference configuration — are compared rather than
//! absolute seconds because CI runners differ in clock speed run to run; a
//! ratio measured within one process is the hardware-normalized signal.
//!
//! `cargo run --release -p kalman-bench --bin bench_check -- \
//!     --baseline BENCH_smoother.json --current BENCH_smoother.new.json`

use kalman_bench::{gate_speedups, read_bench_json, Args};

fn main() {
    let mut args = Args::parse();
    let baseline_path: String = args.get("baseline", String::new());
    let current_path: String = args.get("current", String::new());
    let tol: f64 = args.get("tol", 0.20);
    args.finish();
    assert!(
        !baseline_path.is_empty() && !current_path.is_empty(),
        "usage: bench_check --baseline <json> --current <json> [--tol 0.20]"
    );

    let baseline = read_bench_json(&baseline_path).expect("read baseline");
    let current = read_bench_json(&current_path).expect("read current");

    let rows = gate_speedups(&baseline, &current, tol);
    assert!(
        !rows.is_empty(),
        "no speedup entries in the baseline {baseline_path}"
    );
    let mut failures = Vec::new();
    for row in &rows {
        match row.current {
            Some(c) => println!(
                "  {:<28} baseline {:>7.2}x  current {:>7.2}x  floor {:>7.2}x  {}",
                row.name,
                row.baseline,
                c,
                row.floor,
                if row.passes() { "ok" } else { "REGRESSED" }
            ),
            None => println!(
                "  {:<28} baseline {:>7.2}x  MISSING in current",
                row.name, row.baseline
            ),
        }
        if !row.passes() {
            failures.push(row.name.as_str());
        }
    }

    if !failures.is_empty() {
        eprintln!(
            "bench_check: {} speedup(s) regressed more than {:.0}% or missing: {}",
            failures.len(),
            tol * 100.0,
            failures.join(", ")
        );
        std::process::exit(1);
    }
    println!(
        "bench_check: {} speedups within {:.0}% of baseline",
        rows.len(),
        tol * 100.0
    );
}
