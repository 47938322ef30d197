//! Golden bits of the odd-even smoother: the executor may be re-ordered,
//! fused and re-parallelised freely, but every mean and covariance bit it
//! returns is pinned here.
//!
//! Each entry is an FNV-1a hash over every mean and covariance bit of
//! `odd_even_smooth` on one generated model; the same hash must come out
//! under `Seq`, `par_with_grain(1)` and `par_with_grain(10)`.  Two tables:
//! [`REFERENCE`] under `set_reference_kernels(true)` (scalar oracles only,
//! so the bits do not depend on the host's ISA) and [`AVX2`] under the
//! default kernels, asserted only where `simd_backend()` reports `avx2` or
//! `avx512`.  The default kernels of the n = 48 row differ by rung (the
//! compact-WY tri-stack builds 16-pivot panels on zmm), so that row is
//! [`AVX2`]'s on `avx2` and [`N48_AVX512`] on `avx512`; the six n ≤ 8
//! families run none of the level-3 bodies and share one row on both.
//! The kernel switch is process-global, so the two tests of this binary
//! take one lock each.
//!
//! [`REFERENCE`] was re-captured once the scalar oracle's reflector update
//! was written once, behind `simd::Kernels`, summing every column from its
//! pivot: the tri-stack's columns past the last quad used to add the pivot
//! last, and 66 of its 77 entries moved with them.  The six n ≤ 8 rows of
//! [`AVX2`] were captured on commit 133c1a7 (the level-major executor), as
//! [`REFERENCE`] first was; the two n = 48 default rows
//! after the 16-deep panels and SelInv's product with `R_jj⁻¹` moved them;
//! the `dimension_change` default row once `gemm` chose the 4×4 body by
//! operand shape (that model's 4×4 products used to run the register tile,
//! because its plan mixes dimensions); the `short_observations` default row
//! once its short (`m < n`) observation blocks took step 1's general QR,
//! as they always did under the reference kernels (a structured
//! trapezoidal step 1 used to run there); the `paper_benchmark/prior`,
//! `dimension_change` and `tracking_2d` default rows once the 4×4 / 8×8
//! product became one unfused plain-Rust body (it used to fuse on AVX2).
//!
//! **Re-capture protocol**, for a change that is *meant* to move bits (a
//! kernel's summation order, a generator):
//! - a change that runs no new code under the reference kernels leaves
//!   [`REFERENCE`] unedited, and a default row whose family never reaches
//!   the changed code stays unedited too;
//! - re-capture each moved default row on the commit whose output is the
//!   new truth: copy this file and its `[[test]]` entry there, run
//!   `cargo test -p kalman --test schedule_golden -- --nocapture`, and paste
//!   the rows the failing run prints;
//! - a row that differs by rung is captured once per rung, each asserted
//!   only on its rung.  On an AVX-512 host the `avx2` row comes from a local
//!   build whose `detect_isa` is forced to AVX2 — a build that is never
//!   committed;
//! - [`default_kernels_agree_with_reference`] must pass on every rung, so
//!   the new bits are proven close to the oracle, not only
//!   self-consistent; `tests/stability.rs` and `tests/determinism.rs` pass
//!   unedited.

use kalman::dense::{set_reference_kernels, simd_backend};
use kalman::model::{generators, LinearModel};
use kalman::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::{Mutex, MutexGuard};

/// Held by each test for as long as it sets the process-global kernel
/// switch.
static KERNEL_SWITCH: Mutex<()> = Mutex::new(());

fn kernel_switch() -> MutexGuard<'static, ()> {
    // A test that panicked while holding it left the switch in some state;
    // the next one sets it before every measurement anyway.
    KERNEL_SWITCH.lock().unwrap_or_else(|e| e.into_inner())
}

/// Chain lengths `k + 1`: the degenerate ones, both sides of each small
/// power of two (lone-tail children at every depth) and one long chain.
const LENGTHS: [usize; 11] = [1, 2, 3, 4, 5, 7, 8, 9, 31, 33, 1000];

/// The model families, by row of the tables.  The n = 48 row runs the
/// level-3 kernels (tile GEMM, compact-WY tri-stack, blocked solves) and
/// stops at 33 states to keep the debug-build suite short.
const FAMILIES: [&str; 7] = [
    "paper_benchmark/prior",
    "paper_benchmark/no_prior",
    "dimension_change",
    "sparse_observations",
    "short_observations",
    "tracking_2d",
    "paper_benchmark/n48",
];

fn model(family: usize, k1: usize) -> Option<LinearModel> {
    let k = k1 - 1;
    let mut rng = ChaCha8Rng::seed_from_u64(0x601d + 1000 * family as u64 + k1 as u64);
    Some(match family {
        0 => generators::paper_benchmark(&mut rng, 4, k, true),
        1 => generators::paper_benchmark(&mut rng, 6, k, false),
        2 => generators::dimension_change(&mut rng, 3, k),
        3 => generators::sparse_observations(&mut rng, 3, k, 3),
        4 => generators::short_observations(&mut rng, 5, k, 2),
        5 => generators::tracking_2d(&mut rng, k, 0.1, 0.5, 0.25).model,
        6 if k1 <= 33 => generators::paper_benchmark(&mut rng, 48, k, true),
        _ => return None,
    })
}

fn fnv1a(smoothed: &Smoothed) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: f64| {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for mean in &smoothed.means {
        mean.iter().copied().for_each(&mut eat);
    }
    for cov in smoothed
        .covariances
        .as_ref()
        .expect("covariances requested")
    {
        cov.as_slice().iter().copied().for_each(&mut eat);
    }
    h
}

/// One hash per family (row) and chain length (column).
type Table = [[u64; LENGTHS.len()]; FAMILIES.len()];

/// The row of `paper_benchmark/n48`.
const N48: usize = 6;

/// The default-kernel table of the active rung, by name, or `None` on a
/// rung without one.
fn default_table() -> Option<(&'static str, Table)> {
    match simd_backend() {
        "avx2" => Some(("AVX2", AVX2)),
        "avx512" => {
            let mut table = AVX2;
            table[N48] = N48_AVX512;
            Some(("AVX2 with the N48_AVX512 row", table))
        }
        _ => None,
    }
}

/// One table under the current kernel mode; `0` marks a skipped cell.
fn measure() -> Table {
    let mut table = [[0u64; LENGTHS.len()]; FAMILIES.len()];
    for (f, row) in table.iter_mut().enumerate() {
        for (cell, &k1) in row.iter_mut().zip(&LENGTHS) {
            let Some(model) = model(f, k1) else { continue };
            let hash = |policy| {
                fnv1a(&odd_even_smooth(&model, OddEvenOptions::with_policy(policy)).unwrap())
            };
            *cell = hash(ExecPolicy::Seq);
            for grain in [1, 10] {
                assert_eq!(
                    hash(ExecPolicy::par_with_grain(grain)),
                    *cell,
                    "{} k+1={k1}: Par(grain {grain}) differs from Seq",
                    FAMILIES[f]
                );
            }
        }
    }
    table
}

fn print_table(name: &str, table: &Table) {
    println!("// {name}, measured:");
    println!("[");
    for (row, family) in table.iter().zip(FAMILIES) {
        println!("    // {family}");
        println!("    [");
        for h in row {
            println!("        {h:#018x},");
        }
        println!("    ],");
    }
    println!("];");
}

/// Measures under the current kernel mode; on any difference prints the
/// measured table in paste-ready form and returns the cells that moved.
fn moved(name: &str, want: &Table) -> Vec<String> {
    let got = measure();
    if got == *want {
        return Vec::new();
    }
    print_table(name, &got);
    let mut cells = Vec::new();
    for (f, family) in FAMILIES.iter().enumerate() {
        for (i, k1) in LENGTHS.iter().enumerate() {
            if got[f][i] != want[f][i] {
                cells.push(format!("{name}: {family} k+1={k1}"));
            }
        }
    }
    cells
}

#[test]
fn every_mean_and_covariance_bit_is_the_level_major_executors() {
    let _switch = kernel_switch();
    set_reference_kernels(true);
    let mut cells = moved("REFERENCE", &REFERENCE);
    set_reference_kernels(false);
    match default_table() {
        Some((name, table)) => cells.extend(moved(name, &table)),
        None => println!("simd backend {}: no default table asserted", simd_backend()),
    }
    assert!(
        cells.is_empty(),
        "bits moved (measured tables printed above): {cells:#?}"
    );
}

/// Every golden case under the default kernels of whichever rung runs
/// against the same case under the reference kernels: means and
/// covariances each within 1e-12·(1 + max|·|) of the oracle's.  The bits the
/// default rows pin are therefore close to the oracle, not only
/// self-consistent.
#[test]
fn default_kernels_agree_with_reference() {
    let _switch = kernel_switch();
    let mut far = Vec::new();
    for (f, family) in FAMILIES.iter().enumerate() {
        for &k1 in &LENGTHS {
            let Some(model) = model(f, k1) else { continue };
            let smooth = |reference: bool| {
                set_reference_kernels(reference);
                let opts = OddEvenOptions::with_policy(ExecPolicy::Seq);
                let smoothed = odd_even_smooth(&model, opts).unwrap();
                let means: Vec<f64> = smoothed.means.iter().flatten().copied().collect();
                let covs = smoothed.covariances.expect("covariances requested");
                let covs: Vec<f64> = covs.iter().flat_map(|c| c.as_slice().to_vec()).collect();
                [means, covs]
            };
            let want = smooth(true);
            for ((got, want), what) in smooth(false).iter().zip(&want).zip(["means", "covs"]) {
                let scale = 1.0 + want.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
                let err = got
                    .iter()
                    .zip(want)
                    .fold(0.0_f64, |m, (g, w)| m.max((g - w).abs()));
                if err > 1e-12 * scale {
                    far.push(format!(
                        "{family} k+1={k1} {what}: {err:e} at scale {scale:e}"
                    ));
                }
            }
        }
    }
    set_reference_kernels(false);
    assert!(
        far.is_empty(),
        "default kernels far from the oracle: {far:#?}"
    );
}

const REFERENCE: Table = [
    // paper_benchmark/prior
    [
        0x54f07a1710e98e23,
        0xbe11ea1b2518dcc7,
        0x855066d1ba01decb,
        0x60af87eda379e60b,
        0x15c275d21c23b781,
        0x6ad3ee907c7c265f,
        0x94e61ad9846bd159,
        0x7a8524ab53190110,
        0x6a253328733abc1c,
        0x9fa6249ac9650c10,
        0x1b2fc1b712bf6474,
    ],
    // paper_benchmark/no_prior
    [
        0x9d0ceecb03cd7c47,
        0xf9e9a4da2e10f011,
        0x0d871c2b142efc10,
        0xea996a627a4d59e1,
        0xf62c44974e070207,
        0x109edffb131577b4,
        0x0d04e7eee3f1a5da,
        0x218c2b29613f37e0,
        0x93f604f032ac8afe,
        0x6ba76b8d1efd1217,
        0x6bd48a69e00193b2,
    ],
    // dimension_change
    [
        0x94fb2b9342add6a0,
        0x7f70fc2c801c67c1,
        0xd4cd280dd6d96801,
        0xcbeb3b2656a76ee5,
        0x3f0aaa96f6dc3322,
        0x8a758089cdbe650c,
        0x512b3573c0b2452f,
        0x54a9c63859c04a72,
        0x5f665334ffa98cd8,
        0xdf941f72e1874472,
        0x6e224acb5f6eaaf7,
    ],
    // sparse_observations
    [
        0xa9f5c4d888bc17e5,
        0x9a469bbdf329720e,
        0xb223b7a6344e22bc,
        0x71fb2e7d0c80d74a,
        0x71a7912bfc53a219,
        0x173a79954cd1bd8d,
        0x29514661555cfe24,
        0xf537a8324f8cf185,
        0xe1d3e8bd25b508a4,
        0x5ea6307e209fda23,
        0x5fd3867df1020da2,
    ],
    // short_observations
    [
        0xc3071a785401b6f5,
        0xd4b2101f1eeaaa5d,
        0x616607ac0c541ec5,
        0x3f425c0aa079d34f,
        0x19245c1846df9664,
        0x116ea547f1f879b4,
        0x4fbee4eebbbca8f0,
        0xf220c39d033fa396,
        0xf168c766fe9d3dea,
        0xbfce22a9f1b2c665,
        0xed53397326cb5d3a,
    ],
    // tracking_2d
    [
        0x74164ed2421b06a5,
        0x5e28393f227cd1d7,
        0xa283fdc97b6eeb09,
        0xa4ae5752ff89b91d,
        0xf004b1631a2eeeda,
        0xc55d487bc6542c32,
        0xc11e67302af83127,
        0x0c7954e369587208,
        0x212efeebbbbcb4e3,
        0x9ec3a1fbac8212eb,
        0xc9e4830473fc3118,
    ],
    // paper_benchmark/n48
    [
        0x75db6fc559dbc9e5,
        0x696014ad08e13316,
        0x82f3830d670039f6,
        0x395b2adc5f3e3b42,
        0x46e7b8e3f78e421c,
        0x1d19590adfb2548a,
        0xb7cac64aa700d3c4,
        0x1cfdf5ba14095251,
        0x6d7a10fd4981a28c,
        0x9bb9a4dbaca402aa,
        0x0000000000000000,
    ],
];
const AVX2: Table = [
    // paper_benchmark/prior
    [
        0x54f07a1710e98e23,
        0xdc41d8629d22e78d,
        0x15050a433006bb50,
        0xdcf006f704893287,
        0xf421c739cece6fd3,
        0x15ac68d8093db188,
        0x48d0eec4c5d64b97,
        0xab9940520291dfd4,
        0xf67280d641675280,
        0xb35349c2a0a18066,
        0xd72b1250c4b0713e,
    ],
    // paper_benchmark/no_prior
    [
        0x500a8f23befcb20d,
        0x0f4ac8cf825687d0,
        0xab778863622bb42f,
        0x47248652bf894c00,
        0x815ede7f6b873209,
        0xc677ca44a0b1052b,
        0x226f8936796f828f,
        0x9f13530f4bf9ce95,
        0x168c8db9dd9af423,
        0xbea14eb5239e93b9,
        0xdf573f814ad1ae09,
    ],
    // dimension_change
    [
        0x1d38e498f13f416b,
        0x2e5c610579323d1a,
        0x80a2c4ac092b6037,
        0x2ae240feb9d9b009,
        0x94080f580759e797,
        0x9f720c9a111d6ec2,
        0x6e19135226973756,
        0x9881f8850bf38dac,
        0xa03fb897ad53ff81,
        0x37b4bd41194bd80d,
        0xa5ae2431da28b4e8,
    ],
    // sparse_observations
    [
        0x08c849dec8653a1b,
        0x8db710db7b4bd6b9,
        0xe11c14dc08f61a8a,
        0x15ae61a58b14c9b8,
        0xa9430eff5580e31f,
        0x21c748a1291b8ff7,
        0x41262ad8809a64ce,
        0x353dd441c7b2d20f,
        0xe604b82f3c8b19c0,
        0x0f47312491c6e8a4,
        0x4048bafe8e7eca34,
    ],
    // short_observations
    [
        0xff0b1ef86eec745a,
        0x7f7db00c2d9e990b,
        0xc49a3b53366d373a,
        0x868089567be4b24d,
        0x9cb4a7d4dd1e2a5f,
        0xa74e9281fff59f3d,
        0x54129354c860992f,
        0xd4d2dc880dd30a47,
        0xbe20101a2dfa7702,
        0x276f247e624f8240,
        0x63056c6a9950e4b9,
    ],
    // tracking_2d
    [
        0x74164ed2421b06a5,
        0xc1947fc319cae7f6,
        0xaae703b7f2715e39,
        0x4780e73cb34309ba,
        0x7d12ccc20bd7e1fa,
        0x4542d3396ac43015,
        0x0d02b1976f5598be,
        0x56e6c5f6bad8c3ab,
        0x4b2ea8f1c75eabc9,
        0x154a54cb4adf9c8f,
        0x453b1595cb16c423,
    ],
    // paper_benchmark/n48, asserted on `avx2` only
    [
        0x84af7cefc9917690,
        0x2e61c8e86cf5d786,
        0xc3313ca6989a43fe,
        0x66ee6e106fe5e970,
        0xb705b333bbee8b15,
        0x37a00c5b37107a64,
        0xae1c31fc500bc710,
        0x5cb72a94ad6645a9,
        0xecc34404b71147f0,
        0x07d09841e0d20be9,
        0x0000000000000000,
    ],
];
/// The `paper_benchmark/n48` row of the default kernels on `avx512`.
const N48_AVX512: [u64; LENGTHS.len()] = [
    0x84af7cefc9917690,
    0xccbe2b0dff5c22cb,
    0x267cee9a4c1501c3,
    0x267c92ec374c5fab,
    0x03b99ef32c7f63cc,
    0x021133bc242badd6,
    0xe97685c38eb00be6,
    0x28b3203c4aa5c2ee,
    0xadffa545f1e24439,
    0x434bf61dab95f821,
    0x0000000000000000,
];
