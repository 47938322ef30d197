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
//! [`REFERENCE`] and the six n ≤ 8 rows of [`AVX2`] were captured on commit
//! 133c1a7 (the level-major executor); the two n = 48 default rows
//! after the 16-deep panels and SelInv's product with `R_jj⁻¹` moved them;
//! the `dimension_change` default row once `gemm` chose the 4×4 body by
//! operand shape (that model's 4×4 products used to run the register tile,
//! because its plan mixes dimensions); the `short_observations` default row
//! once its short (`m < n`) observation blocks took step 1's general QR,
//! as they always did under the reference kernels (a structured
//! trapezoidal step 1 used to run there).
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
        0x64d7a39356921163,
        0xb7dbc2e13dc742c4,
        0xaeabf30fdf21f1d0,
        0xcec46c2b01975883,
        0xe9d87aa3403cbfa8,
        0x5c8d0bc96ee6be4b,
        0x94a3088c34b1d13c,
        0x67b501b936e0513c,
        0x8ed69e8869ff6a50,
        0xf1ec38bf071fda78,
    ],
    // paper_benchmark/no_prior
    [
        0x9d0ceecb03cd7c47,
        0x1912e9d6d0aa20b4,
        0xf61da8b5672a7dd2,
        0xd6494f921be2f7a0,
        0xd6c32a5ac6f0a043,
        0x85922389efb0dda6,
        0x5376952eecb5c977,
        0x7fa014b8b5f61fd9,
        0x7094ecce379ab6d1,
        0xe76ca25312770b71,
        0xcbdbdbb1b25cde7f,
    ],
    // dimension_change
    [
        0x94fb2b9342add6a0,
        0x083ca17684ce094f,
        0xc16525ea38f7fbe2,
        0x5b483dcbfc243ebb,
        0x90ac1d63f1b8bb34,
        0xcb4ee572a2e2d4bf,
        0xedcda43c41f9f080,
        0x83711a950c87833d,
        0xb806e67f8d637322,
        0xe5133aee6a89e962,
        0x4c379a90f184f03a,
    ],
    // sparse_observations
    [
        0xa9f5c4d888bc17e5,
        0x9a469bbdf329720e,
        0x5f7b11a6d3c270d3,
        0x93dda0aa413649da,
        0x9abdc49a5f93aa76,
        0x2faafe4f6f8b3450,
        0xf3710273ed02b418,
        0x887d12000e097340,
        0x50820c5928815f33,
        0xc08100377f868034,
        0x0ff421290e1cf0ab,
    ],
    // short_observations
    [
        0xc3071a785401b6f5,
        0x82c53d9471b1cf6f,
        0xd112de9a2e70b860,
        0xfdbdd3efab543577,
        0x3c263097ba7328e2,
        0xcd04a59d76a5a2e9,
        0x18a0be20b5727d5f,
        0x11f858ca7ef08471,
        0x1e029c26b6db31b9,
        0xc6b04a83b21c2a0f,
        0xbdac6a7774fc48b6,
    ],
    // tracking_2d
    [
        0x74164ed2421b06a5,
        0x673669c75e88c003,
        0xa283fdc97b6eeb09,
        0x50d683ee911b7157,
        0xf004b1631a2eeeda,
        0xb059e9e3999705bc,
        0x4d6ea5aca226ed46,
        0x95f1a5d0ab6fbb8c,
        0xf9ebbae0c9965a63,
        0x490bd7894c86b7e9,
        0x572589a6182ce5e3,
    ],
    // paper_benchmark/n48
    [
        0x75db6fc559dbc9e5,
        0x2e918b406821039b,
        0xada3d4fe63ba845d,
        0xca331ed582f82264,
        0x89366d3ac780016b,
        0xbe3a23a70e9f78c7,
        0x087b7ba45b87e590,
        0xf5c8fb575545b93e,
        0x5337db30dc806237,
        0x1f02985961bb6ca4,
        0x0000000000000000,
    ],
];
const AVX2: Table = [
    // paper_benchmark/prior
    [
        0x54f07a1710e98e23,
        0x64c61240833a44e4,
        0x3bc528b5eea82d6b,
        0x4331d57540bd6ed8,
        0x955cb97abac4a297,
        0x7a98cb086d278033,
        0x4bd8fdf63096678a,
        0xaab6a182276a7851,
        0x9cde4b6c5701937e,
        0xd177315a0781d233,
        0x7645ccdcd2bf8d6a,
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
        0x630f26d645aab6cd,
        0x67dd2b83e0530c1f,
        0x128d25a187f7aa4a,
        0x6b013c24a0bae1ee,
        0xce7b9caea64dff54,
        0xdcf611a4a3c57329,
        0x0f768f9eefa94ac2,
        0x9620870929cce998,
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
        0x14fa9fa9a1542059,
        0x4c2d3b83632eb12e,
        0x9f4fa201b176b026,
        0x53a385a250cecbc5,
        0x5ceff250b260dd4a,
        0x74905110ea407f33,
        0xe8f8931a05fc6b35,
        0x1e6044e64780d657,
        0x18884edc16fcee83,
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
