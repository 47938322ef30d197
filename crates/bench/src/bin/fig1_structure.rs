//! Figure 1: the nonzero block structure of the odd-even `R` factor for a
//! problem with k = 50 states (each cell is an n×n block).
//!
//! `cargo run --release -p kalman-bench --bin fig1_structure [--k 50]`

use kalman::model::{generators, whiten_model};
use kalman::odd_even::factor_odd_even;
use kalman::prelude::*;
use rand::SeedableRng;

fn main() {
    let mut args = kalman_bench::Args::parse();
    let k: usize = args.get("k", 49); // 50 states, matching the paper
    args.finish();

    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
    let model = generators::paper_benchmark(&mut rng, 2, k, false);
    let steps = whiten_model(&model).unwrap();
    let r = factor_odd_even(&steps, ExecPolicy::par()).unwrap();

    let states = r.num_states();
    let blocks = r.structure();
    let mut grid = vec![vec![false; states]; states];
    for (i, j) in &blocks {
        grid[*i][*j] = true;
    }

    println!(
        "Figure 1: block structure of R, {} states (permuted odd-even order)",
        states
    );
    println!("each '#' is one n-by-n nonzero block\n");
    for row in &grid {
        let line: String = row.iter().map(|&b| if b { '#' } else { '.' }).collect();
        println!("{line}");
    }

    println!("\nelimination levels (chain halves every level):");
    for (l, level) in r.levels.iter().enumerate() {
        println!("  level {l}: {:>3} columns eliminated", level.len());
    }
    let nnz = blocks.len();
    println!(
        "\n{} nonzero blocks total ({} diagonal + {} off-diagonal; bidiagonal R would have {})",
        nnz,
        states,
        nnz - states,
        2 * states - 1
    );
}
