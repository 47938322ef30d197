//! Re-plan memory: a caller that builds a fresh `SmoothPlan` for every
//! problem of one shape must not grow its resident set cycle over cycle.
//! A plan that runs under the workspace arena parks its whole working set
//! in the thread's pool when it drops, and the next plan of the shape
//! factors into those buffers; once the first cycle has sized the pool,
//! every later cycle should find what it needs there.  A buffer handed out
//! for a shorter length than the one it was first written at does not
//! show here, but a buffer handed out for a *longer* one makes more of its
//! pages resident, so size classes much coarser than the lengths they
//! serve creep upwards.  Own binary, so no other test's memory is read.

use kalman::model::generators;
use kalman::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Plan-and-smooth cycles per shape.
const CYCLES: usize = 6;
/// How far the resident set may grow after the first cycle of a shape.
const RSS_GROWTH_KIB: u64 = 1024;

/// The process's resident set (`VmRSS`) in KiB, or `None` where
/// `/proc/self/status` does not exist.
fn rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Runs [`CYCLES`] cycles of plan, smooth with covariances, drop on one
/// `n`-state model of `k` steps, and checks the resident set after each.
fn replan_cycles(n: usize, k: usize, seed: u64) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let model = generators::paper_benchmark(&mut rng, n, k, true);
    let options = OddEvenOptions {
        covariances: true,
        policy: ExecPolicy::Seq,
        compress_odd: true,
    };
    let mut readings = Vec::with_capacity(CYCLES);
    for _ in 0..CYCLES {
        let mut plan = SmoothPlan::for_model(&model, options).unwrap();
        let smoothed = plan.smooth_model(&model).unwrap();
        assert_eq!(smoothed.means.len(), model.num_states());
        drop((smoothed, plan));
        match rss_kib() {
            Some(rss) => readings.push(rss),
            None => {
                println!("no /proc/self/status here: RSS growth not checked");
                return;
            }
        }
    }
    println!("n = {n}, k = {k}: VmRSS per cycle {readings:?} KiB");
    let first = readings[0];
    let peak = readings.iter().copied().max().unwrap_or(first);
    assert!(
        peak.saturating_sub(first) <= RSS_GROWTH_KIB,
        "n = {n}, k = {k}: resident set grew {} KiB after cycle 1: {readings:?}",
        peak - first
    );
}

/// `cargo test --release -p kalman --test replan_memory -- --ignored`.
#[test]
#[ignore = "about 25 s in a debug build: run in release"]
fn replanning_one_shape_does_not_grow_the_resident_set() {
    replan_cycles(48, 200, 36);
    replan_cycles(6, 4000, 37);
}
