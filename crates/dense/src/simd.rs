//! Explicit-width SIMD microkernels, and the instantiations of the
//! fixed-size bodies.
//!
//! This module is the crate's one island of `unsafe`: f64×4 tiles written
//! against `core::arch` x86_64 AVX2/FMA intrinsics (and one f64×8 GEMM tile
//! on AVX-512F), with a portable fallback in plain Rust for every kernel,
//! and the `avx2,fma` `#[target_feature]` wrappers of the plain-Rust bodies
//! in [`crate::fixed`].  The backend is runtime-dispatched once (the first
//! caller runs `is_x86_feature_detected!` and the verdict is cached), so
//! steady-state calls pay a single relaxed atomic load.
//!
//! Three layers of kernels coexist, and the scalar layer is the oracle:
//!
//! * **scalar** — the original loop nests in `gemm.rs` / `qr.rs` / `tri.rs`,
//!   always reachable via `KALMAN_REF_KERNELS` / `set_reference_kernels`;
//!   they also serve the shapes too small for a tile to pay,
//! * **SIMD** — the width-aware kernels in this module: the level-1/2 ones
//!   ([`dot`], [`axpy`], the one- and four-column Householder applications)
//!   under the unblocked eliminations and solves of small blocks, and one
//!   level-3 kernel, the register-tile GEMM [`gemm_tile`] (an 8×6 ymm tile,
//!   and on AVX-512F hosts a 16×8 zmm tile that computes the same bits),
//!   under every product `gemm` dispatches and under the batch-scale bodies
//!   built on it (compact-WY tri-stack in `qr.rs`, blocked back substitution
//!   and inverse-Gram in `tri.rs`) — whenever reference mode is off,
//! * **monomorphized** — the tri-stack bodies in `qr.rs` at `n ∈ {8, 16}`,
//!   which `qr_tri_stack_applying` runs whenever its operands are exactly
//!   that square shape.
//!
//! Every rung is chosen from the operands' shapes (and the reference
//! switch) at the entry point, never by a plan or an option, so the same
//! block takes the same body wherever it shows up.  Beside the ladder sit
//! the **fixed-size** kernels of [`crate::fixed`] — `gemm`'s `N×N` product
//! ([`gemm_mono`] is its checked public entry), a stream's whole forward
//! step and the two steps of its back half at `n ∈ {4, 8}`, on
//! stack-resident columns.  They are chosen the same way, and written
//! without intrinsics: this module only instantiates each body under
//! `avx2,fma` and portably and dispatches between the two, which compute
//! the same bits.
//!
//! **Accuracy contract**: the FMA tiles fuse multiply and add into a single
//! rounding, so SIMD results are *not* bitwise-equal to the scalar oracle —
//! they agree to the usual `O(ε·‖·‖)` backward-error tolerance, which the
//! proptest suite pins (`crates/dense/tests/proptests.rs`).  What *is*
//! bitwise-stable is determinism: every kernel here is a pure function of
//! its operands, so sequential and parallel smoother runs stay bitwise
//! identical with SIMD active (pinned in `tests/determinism.rs`).
//!
//! Dispatch outcomes are counted ([`kernel_dispatch_counts`]) and exported
//! as `dense.kernel.dispatch.*` sampled gauges by
//! [`register_workspace_gauges`](crate::workspace::register_workspace_gauges).
#![allow(unsafe_code)]

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

use crate::{fixed, workspace};

// ---------------------------------------------------------------------------
// Runtime dispatch
// ---------------------------------------------------------------------------

/// Cached CPU verdict: 0 = undetected, else one of the `ISA_*` levels.
static ISA: AtomicU8 = AtomicU8::new(0);
/// No AVX2/FMA: the portable kernels.
const ISA_PORTABLE: u8 = 1;
/// AVX2+FMA: every intrinsic kernel on 256-bit registers.
const ISA_AVX2: u8 = 2;
/// AVX2+FMA and AVX-512F: as [`ISA_AVX2`], plus the zmm GEMM tile.
const ISA_AVX512: u8 = 3;

/// `true` when SIMD tiles should be used: the scalar reference oracle is
/// not forced.
#[inline]
pub(crate) fn simd_active() -> bool {
    !workspace::reference_kernels()
}

#[cfg(target_arch = "x86_64")]
fn detect_isa() -> u8 {
    use std::arch::is_x86_feature_detected as has;
    if !(has!("avx2") && has!("fma")) {
        ISA_PORTABLE
    } else if has!("avx512f") {
        ISA_AVX512
    } else {
        ISA_AVX2
    }
}

/// The CPU verdict, detected on the first call and cached.
#[inline]
fn isa() -> u8 {
    #[cfg(target_arch = "x86_64")]
    {
        // Relaxed loads/stores throughout: the cached verdict is an
        // idempotent pure function of the CPU, so racing initializers all
        // store the same value and no ordering is needed.
        match ISA.load(Ordering::Relaxed) {
            0 => {
                let level = detect_isa();
                ISA.store(level, Ordering::Relaxed); // Relaxed: same idempotent-detection argument.
                level
            }
            level => level,
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        ISA_PORTABLE
    }
}

/// `true` when the AVX2/FMA implementations should run (CPU support
/// detected).
#[inline]
fn use_avx2() -> bool {
    isa() >= ISA_AVX2
}

/// `true` when the zmm GEMM tile may run: AVX2/FMA and AVX-512F detected.
#[inline]
fn use_avx512() -> bool {
    isa() == ISA_AVX512
}

/// Rows of one register tile of [`gemm_tile`] on the active rung: 16 on
/// zmm, 8 on ymm and portably.  Level-3 bodies size their panels by it.
#[inline]
pub(crate) fn tile_rows() -> usize {
    #[cfg(target_arch = "x86_64")]
    if use_avx512() {
        return ZMM_MR;
    }
    TILE_MR
}

/// Which backend the SIMD layer would run right now: `"avx512"` (the
/// AVX2/FMA kernels with the zmm GEMM tile under [`gemm_tile`]), `"avx2"`,
/// `"portable"`, or `"scalar"` when the reference oracle is forced.
/// `fig2 --smoke` and `fig4 --smoke` record it with every gate reading.
pub fn simd_backend() -> &'static str {
    if !simd_active() {
        "scalar"
    } else if use_avx512() {
        "avx512"
    } else if use_avx2() {
        "avx2"
    } else {
        "portable"
    }
}

// ---------------------------------------------------------------------------
// Dispatch counters (exported as `dense.kernel.dispatch.*` gauges)
// ---------------------------------------------------------------------------

static SCALAR_HITS: AtomicU64 = AtomicU64::new(0);
static SIMD_HITS: AtomicU64 = AtomicU64::new(0);
static MONO_HITS: AtomicU64 = AtomicU64::new(0);

/// Records one kernel-entry dispatch to the scalar path.
#[inline]
pub(crate) fn note_scalar() {
    // Relaxed: statistical counter, never synchronizes anything.
    SCALAR_HITS.fetch_add(1, Ordering::Relaxed);
}

/// Records one kernel-entry dispatch to the SIMD tiles.
#[inline]
pub(crate) fn note_simd() {
    // Relaxed: statistical counter, never synchronizes anything.
    SIMD_HITS.fetch_add(1, Ordering::Relaxed);
}

/// Records one kernel-entry dispatch to a monomorphized kernel.
#[inline]
pub(crate) fn note_mono() {
    // Relaxed: statistical counter, never synchronizes anything.
    MONO_HITS.fetch_add(1, Ordering::Relaxed);
}

/// Cumulative `(scalar, simd, mono)` kernel-entry dispatch counts for this
/// process.  Counted once per kernel *entry* (a GEMM call, a reflector
/// application, a stack factorization), not per tile, so the counters cost
/// one relaxed add each and still show exactly which ladder rung served the
/// workload.
pub fn kernel_dispatch_counts() -> (u64, u64, u64) {
    // Relaxed: statistical counters; a torn cross-counter snapshot is fine.
    (
        SCALAR_HITS.load(Ordering::Relaxed), // Relaxed: statistical counter.
        SIMD_HITS.load(Ordering::Relaxed),   // Relaxed: statistical counter.
        MONO_HITS.load(Ordering::Relaxed),   // Relaxed: statistical counter.
    )
}

// ---------------------------------------------------------------------------
// Kept for the end-to-end benchmark harness
// ---------------------------------------------------------------------------

/// A specialization hint that no kernel reads any more: [`crate::gemm`] and
/// [`crate::qr_tri_stack_applying`] pick their bodies from the operands'
/// shapes.  Kept only because the end-to-end benchmark's `dense` probe
/// (`benchmark/src/probes.rs`) names it; it goes with the next revision of
/// that harness (ROADMAP A(2)).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelKind {
    /// Any dimension.
    Auto,
    /// State dimension 4.
    Mono4,
    /// State dimension 8.
    Mono8,
    /// State dimension 16.
    Mono16,
}

impl KernelKind {
    /// The hint for a single uniform block dimension.
    pub fn for_dim(n: usize) -> Self {
        match n {
            4 => KernelKind::Mono4,
            8 => KernelKind::Mono8,
            16 => KernelKind::Mono16,
            _ => KernelKind::Auto,
        }
    }
}

// ---------------------------------------------------------------------------
// Kernel: dot product
// ---------------------------------------------------------------------------

/// # Safety
///
/// Caller must ensure AVX2 and FMA are available on the executing CPU.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn dot_avx2(x: &[f64], y: &[f64]) -> f64 {
    use core::arch::x86_64::*;
    let n = x.len();
    let (px, py) = (x.as_ptr(), y.as_ptr());
    let mut acc0 = _mm256_setzero_pd();
    let mut acc1 = _mm256_setzero_pd();
    let mut i = 0;
    while i + 8 <= n {
        acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(px.add(i)), _mm256_loadu_pd(py.add(i)), acc0);
        acc1 = _mm256_fmadd_pd(
            _mm256_loadu_pd(px.add(i + 4)),
            _mm256_loadu_pd(py.add(i + 4)),
            acc1,
        );
        i += 8;
    }
    if i + 4 <= n {
        acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(px.add(i)), _mm256_loadu_pd(py.add(i)), acc0);
        i += 4;
    }
    let mut s = hsum4(_mm256_add_pd(acc0, acc1));
    while i < n {
        s += x[i] * y[i];
        i += 1;
    }
    s
}

/// Horizontal sum of a 4-lane f64 vector.
///
/// # Safety
///
/// Caller must ensure AVX2 is available on the executing CPU.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn hsum4(v: core::arch::x86_64::__m256d) -> f64 {
    use core::arch::x86_64::*;
    let lo = _mm256_castpd256_pd128(v);
    let hi = _mm256_extractf128_pd::<1>(v);
    let s = _mm_add_pd(lo, hi);
    _mm_cvtsd_f64(_mm_add_sd(s, _mm_unpackhi_pd(s, s)))
}

fn dot_portable(x: &[f64], y: &[f64]) -> f64 {
    // Four explicit lanes so the summation order (and thus the result)
    // matches intent regardless of autovectorization.
    let mut lanes = [0.0f64; 4];
    let mut chunks = x.chunks_exact(4).zip(y.chunks_exact(4));
    for (xc, yc) in &mut chunks {
        for l in 0..4 {
            lanes[l] += xc[l] * yc[l];
        }
    }
    let mut s = (lanes[0] + lanes[2]) + (lanes[1] + lanes[3]);
    let tail = x.len() - x.len() % 4;
    for (xi, yi) in x[tail..].iter().zip(&y[tail..]) {
        s += xi * yi;
    }
    s
}

/// SIMD dot product `x · y` (lengths must match).  Lane-parallel summation:
/// agrees with the scalar left-to-right sum to rounding, not bitwise.
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if use_avx2() {
        // SAFETY: `use_avx2()` is true only after `is_x86_feature_detected!`
        // confirmed AVX2+FMA on this CPU.
        return unsafe { dot_avx2(x, y) };
    }
    dot_portable(x, y)
}

// ---------------------------------------------------------------------------
// Kernel: axpy
// ---------------------------------------------------------------------------

/// # Safety
///
/// Caller must ensure AVX2 and FMA are available on the executing CPU.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn axpy_avx2(alpha: f64, x: &[f64], y: &mut [f64]) {
    use core::arch::x86_64::*;
    let n = x.len();
    let px = x.as_ptr();
    let py = y.as_mut_ptr();
    let av = _mm256_set1_pd(alpha);
    let mut i = 0;
    while i + 4 <= n {
        let yv = _mm256_fmadd_pd(av, _mm256_loadu_pd(px.add(i)), _mm256_loadu_pd(py.add(i)));
        _mm256_storeu_pd(py.add(i), yv);
        i += 4;
    }
    while i < n {
        y[i] += alpha * x[i];
        i += 1;
    }
}

fn axpy_portable(alpha: f64, x: &[f64], y: &mut [f64]) {
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// SIMD axpy: `y += alpha·x` (lengths must match).  Elementwise, so lane
/// width changes rounding (FMA) but never ordering.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if use_avx2() {
        // SAFETY: `use_avx2()` is true only after `is_x86_feature_detected!`
        // confirmed AVX2+FMA on this CPU.
        return unsafe { axpy_avx2(alpha, x, y) };
    }
    axpy_portable(alpha, x, y)
}

// ---------------------------------------------------------------------------
// Kernel: the GEMM register tiles (8×6 on ymm, 16×8 on zmm)
// ---------------------------------------------------------------------------

/// Tile height: rows of `C` per register tile (two 4-lane vectors).
const TILE_MR: usize = 8;
/// Tile width: columns of `C` per register tile.  8×6 keeps twelve
/// independent FMA accumulators live — enough to cover the FMA latency at
/// two issues per cycle — and still leaves registers for the two `A`
/// vectors and the broadcast of `op(B)`.
const TILE_NR: usize = 6;

/// Lane masks for a partial 8-row tile: lane `i` of the pair is all-ones
/// iff `i < rows`.
///
/// # Safety
///
/// Caller must ensure AVX2 is available on the executing CPU.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn row_masks(rows: usize) -> (core::arch::x86_64::__m256i, core::arch::x86_64::__m256i) {
    use core::arch::x86_64::*;
    let r = _mm256_set1_epi64x(rows as i64);
    (
        _mm256_cmpgt_epi64(r, _mm256_setr_epi64x(0, 1, 2, 3)),
        _mm256_cmpgt_epi64(r, _mm256_setr_epi64x(4, 5, 6, 7)),
    )
}

/// One register tile: `C[0..rows, 0..NR] += alpha · A[0..rows, 0..k] ·
/// op(B)[0..k, 0..NR]` with `rows = 8`, or `rows < 8` when `MASKED` (the
/// partial rows are loaded and stored through lane masks, so memory past
/// `rows` is never touched).
///
/// # Safety
///
/// Caller must ensure AVX2 and FMA are available on the executing CPU and
/// that, for every `p < k`, `jr < NR`: `a + p·lda` is readable for `rows`
/// elements, `b + p·bks + jr·bjs` is readable, and `c + jr·ldc` is readable
/// and writable for `rows` elements, with `c` not overlapping `a` or `b`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn gemm_tile_kernel<const NR: usize, const MASKED: bool>(
    rows: usize,
    k: usize,
    alpha: f64,
    a: *const f64,
    lda: usize,
    b: *const f64,
    bks: usize,
    bjs: usize,
    c: *mut f64,
    ldc: usize,
) {
    use core::arch::x86_64::*;
    let (m0, m1) = row_masks(rows);
    let mut acc = [[_mm256_setzero_pd(); 2]; NR];
    let (mut ap, mut bp) = (a, b);
    for _ in 0..k {
        let (a0, a1) = if MASKED {
            (
                _mm256_maskload_pd(ap, m0),
                _mm256_maskload_pd(ap.add(4), m1),
            )
        } else {
            (_mm256_loadu_pd(ap), _mm256_loadu_pd(ap.add(4)))
        };
        for (jr, lanes) in acc.iter_mut().enumerate() {
            let bv = _mm256_set1_pd(*bp.add(jr * bjs));
            lanes[0] = _mm256_fmadd_pd(a0, bv, lanes[0]);
            lanes[1] = _mm256_fmadd_pd(a1, bv, lanes[1]);
        }
        ap = ap.add(lda);
        bp = bp.add(bks);
    }
    let av = _mm256_set1_pd(alpha);
    for (jr, lanes) in acc.iter().enumerate() {
        let cj = c.add(jr * ldc);
        if MASKED {
            let c0 = _mm256_maskload_pd(cj, m0);
            let c1 = _mm256_maskload_pd(cj.add(4), m1);
            _mm256_maskstore_pd(cj, m0, _mm256_fmadd_pd(av, lanes[0], c0));
            _mm256_maskstore_pd(cj.add(4), m1, _mm256_fmadd_pd(av, lanes[1], c1));
        } else {
            let c0 = _mm256_loadu_pd(cj);
            let c1 = _mm256_loadu_pd(cj.add(4));
            _mm256_storeu_pd(cj, _mm256_fmadd_pd(av, lanes[0], c0));
            _mm256_storeu_pd(cj.add(4), _mm256_fmadd_pd(av, lanes[1], c1));
        }
    }
}

/// The tile sweep behind [`gemm_tile`]: 8-row strips of `A` outermost (a
/// strip stays in L1 while `op(B)` streams past it), `NR`-column tiles
/// inside, the ragged last strip through the masked tile.
///
/// # Safety
///
/// Caller must ensure AVX2 and FMA are available on the executing CPU and
/// that the three operands satisfy the extents [`gemm_tile`] asserts.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn gemm_tile_avx2(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: *const f64,
    lda: usize,
    b: *const f64,
    bks: usize,
    bjs: usize,
    c: *mut f64,
    ldc: usize,
) {
    let mut i = 0;
    while i < m {
        let rows = TILE_MR.min(m - i);
        let mut j = 0;
        while j < n {
            let nr = TILE_NR.min(n - j);
            let (ai, bj, cij) = (a.add(i), b.add(j * bjs), c.add(i + j * ldc));
            macro_rules! tile {
                ($nr:literal) => {
                    if rows == TILE_MR {
                        gemm_tile_kernel::<$nr, false>(
                            rows, k, alpha, ai, lda, bj, bks, bjs, cij, ldc,
                        )
                    } else {
                        gemm_tile_kernel::<$nr, true>(
                            rows, k, alpha, ai, lda, bj, bks, bjs, cij, ldc,
                        )
                    }
                };
            }
            match nr {
                6 => tile!(6),
                5 => tile!(5),
                4 => tile!(4),
                3 => tile!(3),
                2 => tile!(2),
                _ => tile!(1),
            }
            j += nr;
        }
        i += rows;
    }
}

/// zmm tile height: two 8-lane vectors per column.
#[cfg(target_arch = "x86_64")]
const ZMM_MR: usize = 16;
/// zmm tile width: 16 accumulators, two `A` vectors and the broadcast use
/// 19 of the 32 zmm registers.  The tile is two vectors tall rather than
/// one vector tall and wider because every column costs one broadcast load
/// of `op(B)` per `p`: 16×8 issues 8 of them per 16 FMAs, an 8×12 tile 12
/// per 12, and the 8×12 tile read 9–29 % slower (48³ 3.07 vs 2.81 µs, 96³
/// 25.6 vs 21.7, 48 × 48 × 2000 184 vs 142 on a Sapphire Rapids core).
#[cfg(target_arch = "x86_64")]
const ZMM_NR: usize = 8;
/// A ragged strip of 9–15 rows runs the lane-masked zmm tile only from this
/// depth up: its masked loads and stores cost a fixed ≈ 60 ns per tile,
/// which the ymm sweep's two strips undercut at `k ≤ 12`.
#[cfg(target_arch = "x86_64")]
const ZMM_MASKED_MIN_K: usize = 16;

/// One zmm register tile: [`gemm_tile_kernel`]'s contract with 16 rows, or
/// `8 < rows < 16` when `MASKED` (the low vector is then whole and only the
/// high one goes through a lane mask).  Every `C` entry takes the ymm
/// tile's FMA chain — a zero accumulator, one `fmadd(a, b, acc)` per `p` in
/// order, then `fmadd(α, acc, c)` — so the two tiles are bitwise equal.
///
/// # Safety
///
/// Caller must ensure AVX-512F and FMA are available on the executing CPU,
/// that `rows` is as above, and that, for every `p < k`, `jr < NR`:
/// `a + p·lda` is readable for `rows` elements, `b + p·bks + jr·bjs` is
/// readable, and `c + jr·ldc` is readable and writable for `rows` elements,
/// with `c` not overlapping `a` or `b`.  Masked-off lanes are never
/// accessed.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn gemm_tile_kernel_zmm<const NR: usize, const MASKED: bool>(
    rows: usize,
    k: usize,
    alpha: f64,
    a: *const f64,
    lda: usize,
    b: *const f64,
    bks: usize,
    bjs: usize,
    c: *mut f64,
    ldc: usize,
) {
    use core::arch::x86_64::*;
    debug_assert!(if MASKED {
        rows > 8 && rows < ZMM_MR
    } else {
        rows == ZMM_MR
    });
    // Lane `i` of the high vector is live iff `8 + i < rows`.
    let hi_mask = ((1u32 << (rows - 8)) - 1) as u8;
    let mut acc = [[_mm512_setzero_pd(); 2]; NR];
    for p in 0..k {
        let (ap, bp) = (a.add(p * lda), b.add(p * bks));
        let a0 = _mm512_loadu_pd(ap);
        let a1 = if MASKED {
            _mm512_maskz_loadu_pd(hi_mask, ap.wrapping_add(8))
        } else {
            _mm512_loadu_pd(ap.add(8))
        };
        for (jr, lanes) in acc.iter_mut().enumerate() {
            let bv = _mm512_set1_pd(*bp.add(jr * bjs));
            lanes[0] = _mm512_fmadd_pd(a0, bv, lanes[0]);
            lanes[1] = _mm512_fmadd_pd(a1, bv, lanes[1]);
        }
    }
    let av = _mm512_set1_pd(alpha);
    for (jr, lanes) in acc.iter().enumerate() {
        let cj = c.add(jr * ldc);
        _mm512_storeu_pd(cj, _mm512_fmadd_pd(av, lanes[0], _mm512_loadu_pd(cj)));
        let hi = cj.wrapping_add(8);
        if MASKED {
            let c1 = _mm512_maskz_loadu_pd(hi_mask, hi);
            _mm512_mask_storeu_pd(hi, hi_mask, _mm512_fmadd_pd(av, lanes[1], c1));
        } else {
            _mm512_storeu_pd(hi, _mm512_fmadd_pd(av, lanes[1], _mm512_loadu_pd(hi)));
        }
    }
}

/// Rows of an `m`-row product the zmm tiles take: every full 16-row strip,
/// and a ragged last strip of more than 8 rows when `k ≥ ZMM_MASKED_MIN_K`.
/// The ymm sweep takes the rest.  Measured on a Sapphire Rapids core at
/// `n = 48` (masked zmm vs ymm): 9–15 rows 1.27–1.29 vs 2.01–2.05 µs at
/// `k = 48`, 0.66–0.68 vs 0.75–0.77 at `k = 16`, 0.49–0.50 vs 0.41–0.43 at
/// `k = 8`; at most 8 rows the ymm sweep is faster at every `k` (8 rows,
/// `k = 48`: 0.90 vs 1.03 µs).
#[cfg(target_arch = "x86_64")]
fn zmm_rows(m: usize, k: usize) -> usize {
    let tail = m % ZMM_MR;
    if tail > 8 && k >= ZMM_MASKED_MIN_K {
        m
    } else {
        m - tail
    }
}

/// The AVX-512 rung of [`gemm_tile`]: the first [`zmm_rows`] rows on zmm
/// tiles, the rest on the ymm sweep.  Every entry takes the same FMA chain
/// either way.
///
/// # Safety
///
/// Caller must ensure AVX-512F, AVX2 and FMA are available on the executing
/// CPU and that the three operands satisfy the extents [`gemm_tile`]
/// asserts.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
unsafe fn gemm_tile_zmm_ymm(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: *const f64,
    lda: usize,
    b: *const f64,
    bks: usize,
    bjs: usize,
    c: *mut f64,
    ldc: usize,
) {
    let zmm = zmm_rows(m, k);
    if zmm > 0 {
        gemm_tile_avx512(zmm, n, k, alpha, a, lda, b, bks, bjs, c, ldc);
    }
    if zmm < m {
        let (a, c) = (a.add(zmm), c.add(zmm));
        gemm_tile_avx2(m - zmm, n, k, alpha, a, lda, b, bks, bjs, c, ldc);
    }
}

/// The zmm sweep: 16-row strips of `A` outermost, `ZMM_NR`-column tiles
/// inside, a ragged last strip through the masked tile.
///
/// # Safety
///
/// Caller must ensure AVX-512F, AVX2 and FMA are available on the executing
/// CPU, that `m` is a multiple of 16 plus, at most, one strip of more than
/// 8 rows, and that the three operands satisfy the extents [`gemm_tile`]
/// asserts.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn gemm_tile_avx512(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: *const f64,
    lda: usize,
    b: *const f64,
    bks: usize,
    bjs: usize,
    c: *mut f64,
    ldc: usize,
) {
    let mut i = 0;
    while i < m {
        let rows = ZMM_MR.min(m - i);
        let (ai, ci) = (a.add(i), c.add(i));
        let mut j = 0;
        while j < n {
            let nr = ZMM_NR.min(n - j);
            let (bj, cij) = (b.add(j * bjs), ci.add(j * ldc));
            macro_rules! tile {
                ($nr:literal) => {
                    if rows == ZMM_MR {
                        gemm_tile_kernel_zmm::<$nr, false>(
                            rows, k, alpha, ai, lda, bj, bks, bjs, cij, ldc,
                        )
                    } else {
                        gemm_tile_kernel_zmm::<$nr, true>(
                            rows, k, alpha, ai, lda, bj, bks, bjs, cij, ldc,
                        )
                    }
                };
            }
            match nr {
                8 => tile!(8),
                7 => tile!(7),
                6 => tile!(6),
                5 => tile!(5),
                4 => tile!(4),
                3 => tile!(3),
                2 => tile!(2),
                _ => tile!(1),
            }
            j += nr;
        }
        i += rows;
    }
}

#[allow(clippy::too_many_arguments)]
fn gemm_tile_portable(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &[f64],
    bks: usize,
    bjs: usize,
    c: &mut [f64],
    ldc: usize,
) {
    for i in (0..m).step_by(TILE_MR) {
        let rows = TILE_MR.min(m - i);
        for j in (0..n).step_by(TILE_NR) {
            let nr = TILE_NR.min(n - j);
            let mut acc = [[0.0f64; TILE_MR]; TILE_NR];
            for p in 0..k {
                let ap = &a[p * lda + i..][..rows];
                for (jr, lanes) in acc.iter_mut().enumerate().take(nr) {
                    let bv = b[p * bks + (j + jr) * bjs];
                    for (x, &av) in lanes.iter_mut().zip(ap) {
                        *x += av * bv;
                    }
                }
            }
            for (jr, lanes) in acc.iter().enumerate().take(nr) {
                let cj = &mut c[(j + jr) * ldc + i..][..rows];
                for (ci, &x) in cj.iter_mut().zip(lanes) {
                    *ci += alpha * x;
                }
            }
        }
    }
}

/// One past the largest offset reached by nested walks of `(count, stride)`
/// followed by a contiguous run of `run` elements; `None` on overflow or an
/// empty walk.
fn extent(walks: &[(usize, usize)], run: usize) -> Option<usize> {
    walks.iter().try_fold(run, |end, &(count, stride)| {
        end.checked_add(count.checked_sub(1)?.checked_mul(stride)?)
    })
}

/// The register-tiled GEMM every level-3 kernel of this crate sits on:
/// `C += alpha · A · op(B)` for an `m×k` column-major `A` (leading dimension
/// `lda`, read in place), a `k×n` operand `op(B)[p, j] = b[p·bks + j·bjs]`
/// — `(1, ldb)` reads `B` as stored, `(ldb, 1)` reads `Bᵀ`, so neither case
/// is packed — and an `m×n` column-major `C` (leading dimension `ldc`).
/// Sub-blocks are addressed by slicing the operand at the block's first
/// element and keeping the parent's leading dimension.
///
/// On AVX2/FMA the sweep is 8×6 ymm register tiles (twelve independent
/// accumulators); rows past a multiple of 8 run through lane-masked loads
/// and stores, columns past a multiple of 6 through a narrower tile.  Where
/// AVX-512F is present too, full 16-row strips run 16×8 zmm tiles (sixteen
/// accumulators) and the ragged last strip whichever tile is faster for its
/// row count and depth.  Every tile forms each entry by the same FMA chain
/// — zero, one `fmadd` per `p` in order, then `fmadd(α, ·, c)` — so the
/// result does not depend on which tile ran: each `C` entry is a pure
/// function of its `A` row and `op(B)` column, and results do not depend
/// on how a caller splits a product into calls along `m` or `n`.
///
/// # Panics
///
/// Panics if an operand slice is too short for the shape it is given.
#[allow(clippy::too_many_arguments)]
pub fn gemm_tile(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &[f64],
    bks: usize,
    bjs: usize,
    c: &mut [f64],
    ldc: usize,
) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let fits = |len: usize, walks: &[(usize, usize)], run: usize| {
        extent(walks, run).is_some_and(|end| end <= len)
    };
    assert!(
        lda >= m && fits(a.len(), &[(k, lda)], m),
        "gemm_tile: A extent"
    );
    assert!(
        fits(b.len(), &[(k, bks), (n, bjs)], 1),
        "gemm_tile: op(B) extent"
    );
    assert!(
        ldc >= m && fits(c.len(), &[(n, ldc)], m),
        "gemm_tile: C extent"
    );
    #[cfg(target_arch = "x86_64")]
    if use_avx512() {
        // SAFETY: `use_avx512()` is true only after `is_x86_feature_detected!`
        // confirmed AVX2, FMA and AVX-512F on this CPU; the operand extents
        // are the ones asserted above, as for the AVX2 sweep below.
        return unsafe {
            gemm_tile_zmm_ymm(
                m,
                n,
                k,
                alpha,
                a.as_ptr(),
                lda,
                b.as_ptr(),
                bks,
                bjs,
                c.as_mut_ptr(),
                ldc,
            )
        };
    }
    #[cfg(target_arch = "x86_64")]
    if use_avx2() {
        // SAFETY: `use_avx2()` is true only after `is_x86_feature_detected!`
        // confirmed AVX2+FMA on this CPU.  The assertions above bound every
        // address the sweep forms: column `p < k` of `A` and column `j < n`
        // of `C` hold `m` elements from `p·lda` / `j·ldc`, and
        // `p·bks + j·bjs` is inside `b`; `c` is a `&mut` slice, so it cannot
        // overlap `a` or `b`.
        return unsafe {
            gemm_tile_avx2(
                m,
                n,
                k,
                alpha,
                a.as_ptr(),
                lda,
                b.as_ptr(),
                bks,
                bjs,
                c.as_mut_ptr(),
                ldc,
            )
        };
    }
    gemm_tile_portable(m, n, k, alpha, a, lda, b, bks, bjs, c, ldc)
}

// ---------------------------------------------------------------------------
// Kernel: Householder reflector application (1 and 4 columns)
// ---------------------------------------------------------------------------

/// # Safety
///
/// Caller must ensure AVX2 and FMA are available on the executing CPU, and
/// that each column slice is at least `v.len()` long.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn reflector_quad_avx2(v: &[f64], tau: f64, w: &mut [f64; 4], cols: [&mut [f64]; 4]) {
    use core::arch::x86_64::*;
    let len = v.len();
    let pv = v.as_ptr();
    let [c0, c1, c2, c3] = cols;
    let (p0, p1, p2, p3) = (
        c0.as_mut_ptr(),
        c1.as_mut_ptr(),
        c2.as_mut_ptr(),
        c3.as_mut_ptr(),
    );
    // Phase 1: w_q ← τ·(w_q + v·c_q), sharing every load of v across the
    // four columns.
    let mut s0 = _mm256_setzero_pd();
    let mut s1 = _mm256_setzero_pd();
    let mut s2 = _mm256_setzero_pd();
    let mut s3 = _mm256_setzero_pd();
    let mut i = 0;
    while i + 4 <= len {
        let vv = _mm256_loadu_pd(pv.add(i));
        s0 = _mm256_fmadd_pd(vv, _mm256_loadu_pd(p0.add(i)), s0);
        s1 = _mm256_fmadd_pd(vv, _mm256_loadu_pd(p1.add(i)), s1);
        s2 = _mm256_fmadd_pd(vv, _mm256_loadu_pd(p2.add(i)), s2);
        s3 = _mm256_fmadd_pd(vv, _mm256_loadu_pd(p3.add(i)), s3);
        i += 4;
    }
    let (mut w0, mut w1, mut w2, mut w3) = (hsum4(s0), hsum4(s1), hsum4(s2), hsum4(s3));
    while i < len {
        let vi = v[i];
        w0 += vi * *p0.add(i);
        w1 += vi * *p1.add(i);
        w2 += vi * *p2.add(i);
        w3 += vi * *p3.add(i);
        i += 1;
    }
    w[0] = tau * (w[0] + w0);
    w[1] = tau * (w[1] + w1);
    w[2] = tau * (w[2] + w2);
    w[3] = tau * (w[3] + w3);
    // Phase 2: c_q ← c_q − w_q·v.
    let (wv0, wv1, wv2, wv3) = (
        _mm256_set1_pd(w[0]),
        _mm256_set1_pd(w[1]),
        _mm256_set1_pd(w[2]),
        _mm256_set1_pd(w[3]),
    );
    let mut i = 0;
    while i + 4 <= len {
        let vv = _mm256_loadu_pd(pv.add(i));
        _mm256_storeu_pd(
            p0.add(i),
            _mm256_fnmadd_pd(wv0, vv, _mm256_loadu_pd(p0.add(i))),
        );
        _mm256_storeu_pd(
            p1.add(i),
            _mm256_fnmadd_pd(wv1, vv, _mm256_loadu_pd(p1.add(i))),
        );
        _mm256_storeu_pd(
            p2.add(i),
            _mm256_fnmadd_pd(wv2, vv, _mm256_loadu_pd(p2.add(i))),
        );
        _mm256_storeu_pd(
            p3.add(i),
            _mm256_fnmadd_pd(wv3, vv, _mm256_loadu_pd(p3.add(i))),
        );
        i += 4;
    }
    while i < len {
        let vi = v[i];
        *p0.add(i) -= w[0] * vi;
        *p1.add(i) -= w[1] * vi;
        *p2.add(i) -= w[2] * vi;
        *p3.add(i) -= w[3] * vi;
        i += 1;
    }
}

fn reflector_quad_portable(v: &[f64], tau: f64, w: &mut [f64; 4], cols: [&mut [f64]; 4]) {
    let len = v.len();
    let [c0, c1, c2, c3] = cols;
    let (mut w0, mut w1, mut w2, mut w3) = (0.0, 0.0, 0.0, 0.0);
    for i in 0..len {
        let vi = v[i];
        w0 += vi * c0[i];
        w1 += vi * c1[i];
        w2 += vi * c2[i];
        w3 += vi * c3[i];
    }
    w[0] = tau * (w[0] + w0);
    w[1] = tau * (w[1] + w1);
    w[2] = tau * (w[2] + w2);
    w[3] = tau * (w[3] + w3);
    for i in 0..len {
        let vi = v[i];
        c0[i] -= w[0] * vi;
        c1[i] -= w[1] * vi;
        c2[i] -= w[2] * vi;
        c3[i] -= w[3] * vi;
    }
}

/// Applies one Householder reflector `(v, τ)` to four column tails at once:
/// on entry `w[q]` holds the pivot entry of column `q`; on exit
/// `w[q] = τ·(pivot_q + v·c_q)` and `c_q ← c_q − w[q]·v`.  The caller
/// finishes the pivots (`pivot_q −= w[q]`) — they may live at arbitrary
/// strides (matrix rows), which is exactly why they travel in `w`.
/// Each `cols[q]` must be at least `v.len()` long; only the first `v.len()`
/// entries are touched.
pub fn reflector_quad(v: &[f64], tau: f64, w: &mut [f64; 4], cols: [&mut [f64]; 4]) {
    debug_assert!(cols.iter().all(|c| c.len() >= v.len()));
    #[cfg(target_arch = "x86_64")]
    if use_avx2() {
        // SAFETY: `use_avx2()` is true only after `is_x86_feature_detected!`
        // confirmed AVX2+FMA on this CPU; the debug assertion above (and the
        // callers' slice constructions) guarantee each column holds at least
        // `v.len()` elements.
        return unsafe { reflector_quad_avx2(v, tau, w, cols) };
    }
    reflector_quad_portable(v, tau, w, cols)
}

/// Single-column variant of [`reflector_quad`]: `*w = τ·(*w + v·col)` and
/// `col ← col − *w·v`, caller finishes the pivot.
pub fn reflector_one(v: &[f64], tau: f64, w: &mut f64, col: &mut [f64]) {
    debug_assert!(col.len() >= v.len());
    *w = tau * (*w + dot(v, &col[..v.len()]));
    axpy(-*w, v, &mut col[..v.len()]);
}

// ---------------------------------------------------------------------------
// Kernels: the fixed-size bodies of `fixed.rs`
// ---------------------------------------------------------------------------

/// Instantiates one plain-Rust body of [`crate::fixed`] twice — inside an
/// `avx2,fma` `#[target_feature]` wrapper, where the compiler may keep its
/// fixed-size columns in 256-bit registers, and as is — behind one
/// dispatcher.  The body fixes its own operation order and Rust never fuses
/// a multiply with an add on its own, so the two instantiations are bitwise
/// equal (pinned by `fixed_bodies_are_bitwise_equal_across_instantiations`).
macro_rules! fixed_kernel {
    ($(#[$doc:meta])* $name:ident / $avx2:ident = $body:path;
     <$(const $g:ident),+>($($arg:ident: $ty:ty),*) $(-> $ret:ty)?) => {
        /// # Safety
        ///
        /// Caller must ensure AVX2 and FMA are available on the executing
        /// CPU.
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2", enable = "fma")]
        unsafe fn $avx2<$(const $g: usize),+>($($arg: $ty),*) $(-> $ret)? {
            $body($($arg),*)
        }

        $(#[$doc])*
        #[inline]
        pub(crate) fn $name<$(const $g: usize),+>($($arg: $ty),*) $(-> $ret)? {
            #[cfg(target_arch = "x86_64")]
            if use_avx2() {
                // SAFETY: `use_avx2()` is true only after
                // `is_x86_feature_detected!` confirmed AVX2+FMA on this CPU;
                // the body itself is safe code.
                return unsafe { $avx2::<$($g),+>($($arg),*) };
            }
            $body($($arg),*)
        }
    };
}

fixed_kernel! {
    /// The `N × N` product `c ← β·c + α·a·op(b)` at `N ∈ {4, 8}`, which
    /// [`crate::gemm`] runs on square operands.
    product / product_avx2 = fixed::product_body::<N>;
    <const N>(alpha: f64, a: &[f64], b: &[f64], b_trans: bool, beta: f64, c: &mut [f64])
}

/// `C ← β·C + α·A·op(B)` for `N×N` column-major blocks, `N ∈ {4, 8}`: the
/// body [`crate::gemm`] runs on those square operands, behind checked
/// slice lengths.  `b_trans` selects `op(B) = Bᵀ`; `A` is never transposed.
/// Each entry sums its products in `k` order from `β·C` (from zero when
/// `β = 0`), unfused, so every host computes the same bits.  From `N = 16`
/// up [`gemm_tile`] is faster.
///
/// # Panics
///
/// Panics unless `N ∈ {4, 8}` and each slice holds `N·N` elements.
pub fn gemm_mono<const N: usize>(
    alpha: f64,
    a: &[f64],
    b: &[f64],
    b_trans: bool,
    beta: f64,
    c: &mut [f64],
) {
    assert!(matches!(N, 4 | 8), "gemm_mono: unsupported width");
    assert_eq!(a.len(), N * N, "gemm_mono: A must be N×N");
    assert_eq!(b.len(), N * N, "gemm_mono: B must be N×N");
    assert_eq!(c.len(), N * N, "gemm_mono: C must be N×N");
    product::<N>(alpha, a, b, b_trans, beta, c)
}

fixed_kernel! {
    /// [`fixed::forward_step`](crate::fixed::forward_step) at order `N`
    /// (`N2 = 2N`).
    forward_step / forward_step_avx2 = fixed::forward_step_body::<N, N2>;
    <const N, const N2>(input: &fixed::StepIn<'_>, out: &mut fixed::StepOut<'_>) -> bool
}

fixed_kernel! {
    /// [`fixed::absorb_step`](crate::fixed::absorb_step) at order `N` (`N2 = 2N`).
    absorb / absorb_avx2 = fixed::absorb_body::<N, N2>;
    <const N, const N2>(c: &[f64], d: &[f64], g: &[f64], o: &[f64], out_c: &mut [f64], out_d: &mut [f64])
}

fixed_kernel! {
    /// [`fixed::back_substitute`](crate::fixed::back_substitute) at order
    /// `N`.
    back_substitute / back_substitute_avx2 = fixed::back_substitute_body::<N>;
    <const N>(diag: &[f64], off: &[f64], rhs: &[f64], next: &[f64], mean: &mut [f64]) -> bool
}

fixed_kernel! {
    /// [`fixed::mean_step`](crate::fixed::mean_step) at order `N`.
    mean_step / mean_step_avx2 = fixed::mean_step_body::<N>;
    <const N>(x: &[f64], b: &[f64], next: &[f64], mean: &mut [f64])
}

fixed_kernel! {
    /// [`fixed::selinv_step`](crate::fixed::selinv_step) at order `N`.
    selinv_step / selinv_step_avx2 = fixed::selinv_step_body::<N>;
    <const N>(x: &[f64], a: &[f64], s_next: &[f64], s: &mut [f64])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dot_ref(x: &[f64], y: &[f64]) -> f64 {
        x.iter().zip(y).map(|(a, b)| a * b).sum()
    }

    #[test]
    fn kernel_kind_selection() {
        assert_eq!(KernelKind::for_dim(4), KernelKind::Mono4);
        assert_eq!(KernelKind::for_dim(8), KernelKind::Mono8);
        assert_eq!(KernelKind::for_dim(16), KernelKind::Mono16);
        assert_eq!(KernelKind::for_dim(6), KernelKind::Auto);
    }

    #[test]
    fn dot_axpy_match_reference() {
        for n in [0usize, 1, 3, 4, 5, 7, 8, 9, 15, 33] {
            let x: Vec<f64> = (0..n).map(|i| (i as f64).sin() + 1.0).collect();
            let y: Vec<f64> = (0..n).map(|i| (i as f64).cos() - 0.5).collect();
            let d = dot(&x, &y);
            assert!((d - dot_ref(&x, &y)).abs() <= 1e-12 * (1.0 + d.abs()));
            let mut z = y.clone();
            axpy(0.7, &x, &mut z);
            for i in 0..n {
                let want = y[i] + 0.7 * x[i];
                assert!((z[i] - want).abs() <= 1e-12 * (1.0 + want.abs()));
            }
        }
    }

    /// Strided triple loop: the oracle both tile bodies are pinned to.
    #[allow(clippy::too_many_arguments)]
    fn tile_oracle(
        m: usize,
        n: usize,
        k: usize,
        alpha: f64,
        a: &[f64],
        lda: usize,
        b: &[f64],
        bks: usize,
        bjs: usize,
        c: &mut [f64],
        ldc: usize,
    ) {
        for j in 0..n {
            for i in 0..m {
                let sum: f64 = (0..k).map(|p| a[i + p * lda] * b[p * bks + j * bjs]).sum();
                c[i + j * ldc] += alpha * sum;
            }
        }
    }

    /// Runs `tile` against the oracle on shapes that hit every edge (m mod
    /// 8, n mod 6, k = 1, one column, padded leading dimensions, both
    /// `op(B)` stride pairs) and checks nothing outside the block moved.
    fn check_tile(
        tile: impl Fn(usize, usize, usize, f64, &[f64], usize, &[f64], usize, usize, &mut [f64], usize),
    ) {
        for (m, n, k) in [
            (8usize, 6usize, 5usize),
            (1, 1, 1),
            (7, 5, 3),
            (9, 7, 1),
            (16, 12, 8),
            (13, 1, 9),
            (3, 20, 4),
            (65, 65, 1),
            (48, 49, 8),
        ] {
            for pad in [0usize, 3] {
                let (lda, ldc) = (m + pad, m + 2 * pad);
                let a = wave(lda * k, 0.37);
                for b_trans in [false, true] {
                    // `op(B)` is k×n: stored k×n (ld k+pad) or n×k (ld n+pad).
                    let (bks, bjs, blen) = if b_trans {
                        (n + pad, 1, (n + pad) * k)
                    } else {
                        (1, k + pad, (k + pad) * n)
                    };
                    let b = wave(blen, 0.11);
                    let c0 = wave(ldc * n, 0.71);
                    let (mut got, mut want) = (c0.clone(), c0.clone());
                    tile(m, n, k, -0.75, &a, lda, &b, bks, bjs, &mut got, ldc);
                    tile_oracle(m, n, k, -0.75, &a, lda, &b, bks, bjs, &mut want, ldc);
                    for (idx, (g, w)) in got.iter().zip(&want).enumerate() {
                        assert!(
                            (g - w).abs() <= 1e-12 * (1.0 + w.abs() + k as f64),
                            "({m},{n},{k}) pad={pad} trans={b_trans} at {idx}: {g} vs {w}"
                        );
                        if idx % ldc >= m {
                            assert_eq!(*g, c0[idx], "padding row touched at {idx}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn microtile_matches_scalar_accumulation() {
        check_tile(gemm_tile);
    }

    /// The zmm and ymm sweeps, called directly on the same operands, write
    /// the same bits — on sub-blocks of larger parents, every ragged row
    /// and column count, both `op(B)` stride pairs — and touch nothing
    /// outside the block.
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn zmm_and_ymm_tiles_are_bitwise_equal() {
        if !use_avx512() {
            println!("no AVX-512F on this host: the zmm tile has nothing to compare");
            return;
        }
        // SAFETY: a `Sweep` is only called in `run` below, whose unsafe
        // block states why each of the two sweeps' requirements hold.
        type Sweep = unsafe fn(
            usize,
            usize,
            usize,
            f64,
            *const f64,
            usize,
            *const f64,
            usize,
            usize,
            *mut f64,
            usize,
        );
        let bits = |c: &[f64]| c.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for k in [1usize, 7, 8, 48] {
            for m in 1usize..=40 {
                for n in 1usize..=30 {
                    // Each block starts one row and one column into a parent
                    // whose leading dimension is longer than the block.
                    let (lda, ldc) = (m + 3, m + 2);
                    let a = wave(lda * (k + 1), 0.37);
                    let c0 = wave(ldc * (n + 1), 0.71);
                    for b_trans in [false, true] {
                        let (bks, bjs, ldb, bcols) = if b_trans {
                            (n + 2, 1, n + 2, k)
                        } else {
                            (1, k + 2, k + 2, n)
                        };
                        let b = wave(ldb * (bcols + 1), 0.11);
                        for alpha in [1.0, -1.0, 0.37] {
                            let run = |sweep: Sweep| {
                                let mut c = c0.clone();
                                let (ai, bi, ci) =
                                    (&a[1 + lda..], &b[1 + ldb..], &mut c[1 + ldc..]);
                                // SAFETY: `use_avx512()` held above, so AVX2,
                                // FMA and AVX-512F are available; each block
                                // fits its parent (`1 + m ≤ ld` rows, one
                                // spare column), which is the extent
                                // `gemm_tile` asserts.
                                unsafe {
                                    sweep(
                                        m,
                                        n,
                                        k,
                                        alpha,
                                        ai.as_ptr(),
                                        lda,
                                        bi.as_ptr(),
                                        bks,
                                        bjs,
                                        ci.as_mut_ptr(),
                                        ldc,
                                    )
                                };
                                c
                            };
                            let (ymm, zmm) = (run(gemm_tile_avx2), run(gemm_tile_zmm_ymm));
                            let at = format!("m={m} n={n} k={k} trans={b_trans} alpha={alpha}");
                            assert_eq!(bits(&zmm), bits(&ymm), "{at}");
                            for (idx, (z, c)) in zmm.iter().zip(&c0).enumerate() {
                                let (i, j) = (idx % ldc, idx / ldc);
                                if !(1..=m).contains(&i) || !(1..=n).contains(&j) {
                                    assert_eq!(z.to_bits(), c.to_bits(), "{at}: ({i},{j}) touched");
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    // The dispatching entry points above run the AVX2 bodies on any AVX2
    // host, so the portable fallbacks are pinned here by direct calls.

    fn close(got: f64, want: f64) -> bool {
        (got - want).abs() <= 1e-12 * (1.0 + want.abs())
    }

    fn wave(len: usize, freq: f64) -> Vec<f64> {
        (0..len).map(|i| (i as f64 * freq).sin() + 0.25).collect()
    }

    #[test]
    fn portable_dot_and_axpy_match_scalar_loops() {
        for n in [0usize, 1, 3, 4, 5, 8, 9, 33] {
            let (x, y) = (wave(n, 0.37), wave(n, 0.11));
            assert!(close(dot_portable(&x, &y), dot_ref(&x, &y)), "dot n={n}");
            let mut z = y.clone();
            axpy_portable(-0.6, &x, &mut z);
            for i in 0..n {
                assert!(close(z[i], y[i] - 0.6 * x[i]), "axpy n={n} i={i}");
            }
        }
    }

    #[test]
    fn portable_microtile_matches_scalar_accumulation() {
        check_tile(gemm_tile_portable);
    }

    #[test]
    fn portable_quad_kernels_match_scalar_loops() {
        for len in [0usize, 1, 4, 7, 16] {
            let v = wave(len, 0.53);
            // Columns longer than `v`: only the first `len` entries count.
            let cols: Vec<Vec<f64>> = (0..4).map(|q| wave(len + 2, 0.2 + q as f64)).collect();
            let (tau, pivots) = (1.3, [0.4, -0.7, 1.1, 0.0]);

            let mut got = cols.clone();
            let mut w = pivots;
            let [g0, g1, g2, g3] = &mut got[..] else {
                unreachable!()
            };
            reflector_quad_portable(&v, tau, &mut w, [g0, g1, g2, g3]);
            for q in 0..4 {
                let wq = tau * (pivots[q] + dot_ref(&v, &cols[q][..len]));
                assert!(close(w[q], wq), "reflector_quad w len={len} q={q}");
                for i in 0..len + 2 {
                    let want = cols[q][i] - if i < len { wq * v[i] } else { 0.0 };
                    assert!(
                        close(got[q][i], want),
                        "reflector_quad len={len} q={q} i={i}"
                    );
                }
            }
        }
    }

    /// `c ← β·c + α·a·op(b)` in the product's order: `β·c` (zero when
    /// `β = 0`), then `+= a[i,k]·(α·op(b)[k,j])` in `k` order.
    fn product_loop_nest<const N: usize>(
        alpha: f64,
        a: &[f64],
        b: &[f64],
        b_trans: bool,
        beta: f64,
        c: &[f64],
    ) -> Vec<f64> {
        let mut out = vec![0.0; N * N];
        for j in 0..N {
            for i in 0..N {
                let mut sum = if beta == 0.0 {
                    0.0
                } else {
                    beta * c[i + j * N]
                };
                for k in 0..N {
                    let bkj = if b_trans { b[j + k * N] } else { b[k + j * N] };
                    sum += a[i + k * N] * (alpha * bkj);
                }
                out[i + j * N] = sum;
            }
        }
        out
    }

    /// The product's portable instantiation against its loop nest, to the
    /// bit, and its AVX2 one too when `avx2` is set and the host has it; at
    /// `β = 0` a `c` of NaNs must not reach the result.
    fn check_product<const N: usize>(avx2: bool) {
        #[cfg(not(target_arch = "x86_64"))]
        let _ = avx2;
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        let (a, b) = (wave(N * N, 0.37), wave(N * N, 0.11));
        for b_trans in [false, true] {
            for (alpha, beta) in [(-1.25, 0.0), (0.5, 1.0), (3.0, 0.75)] {
                let c0 = if beta == 0.0 {
                    vec![f64::NAN; N * N]
                } else {
                    wave(N * N, 0.71)
                };
                let want = bits(&product_loop_nest::<N>(alpha, &a, &b, b_trans, beta, &c0));
                let at = format!("N={N} trans={b_trans} alpha={alpha} beta={beta}");
                let mut c = c0.clone();
                fixed::product_body::<N>(alpha, &a, &b, b_trans, beta, &mut c);
                assert_eq!(bits(&c), want, "{at}: portable");
                #[cfg(target_arch = "x86_64")]
                if avx2 && use_avx2() {
                    let mut c = c0.clone();
                    // SAFETY: `use_avx2()` holds, so AVX2+FMA are available
                    // on this CPU.
                    unsafe { product_avx2::<N>(alpha, &a, &b, b_trans, beta, &mut c) };
                    assert_eq!(bits(&c), want, "{at}: avx2");
                }
            }
        }
    }

    /// The plain-Rust product, which every host without AVX2 runs, against
    /// the scalar triple loop.
    #[test]
    fn portable_gemm_mono_matches_scalar_triple_loop() {
        check_product::<4>(false);
        check_product::<8>(false);
    }

    /// The step bodies' two instantiations on the same operands; called only
    /// where `use_avx2()` holds.
    #[cfg(target_arch = "x86_64")]
    fn check_steps<const N: usize, const N2: usize>() {
        // Distinct full-rank blocks: row windows of one tall sample.
        let tall = crate::random::deterministic_well_conditioned(N + 8, N);
        let sq = |at: usize| tall.sub_matrix(at, 0, N, N).into_vec();
        let col = |at: usize| tall.col(at % N)[at / N..][..N].to_vec();
        let (c, d, g, o) = (sq(0), col(1), sq(2), col(3));
        let (b, dd, r) = (sq(4), sq(6), col(5));
        let run = |avx2: bool| {
            let mut out = vec![vec![0.0; N * N]; 5];
            let mut cols = vec![vec![0.0; N]; 5];
            let [diag, off, next_c, x, a] = &mut out[..] else {
                unreachable!()
            };
            let [rhs, next_d, sb, mean, swept] = &mut cols[..] else {
                unreachable!()
            };
            let input = fixed::StepIn {
                head_c: &c,
                head_d: &d,
                obs_c: &g,
                obs_rhs: &o,
                evo_b: &b,
                evo_d: &dd,
                evo_rhs: &r,
            };
            let mut output = fixed::StepOut {
                diag,
                off,
                rhs,
                next_c,
                next_d,
                terms: Some((x, a, sb)),
            };
            let ok = if avx2 {
                // SAFETY: `check_steps` runs only where `use_avx2()` holds,
                // so AVX2+FMA are available on this CPU.
                unsafe { forward_step_avx2::<N, N2>(&input, &mut output) }
            } else {
                fixed::forward_step_body::<N, N2>(&input, &mut output)
            };
            assert!(ok, "well-conditioned stack");
            let (mut head_c, mut head_d) = (vec![0.0; N * N], vec![0.0; N]);
            let mut s = vec![0.0; N * N];
            let next = col(7);
            if avx2 {
                // SAFETY: as above.
                unsafe {
                    absorb_avx2::<N, N2>(&c, &d, &g, &o, &mut head_c, &mut head_d);
                    assert!(back_substitute_avx2::<N>(diag, off, rhs, &next, mean));
                    mean_step_avx2::<N>(x, sb, &next, swept);
                    selinv_step_avx2::<N>(x, a, a, &mut s);
                }
            } else {
                fixed::absorb_body::<N, N2>(&c, &d, &g, &o, &mut head_c, &mut head_d);
                assert!(fixed::back_substitute_body::<N>(
                    diag, off, rhs, &next, mean
                ));
                fixed::mean_step_body::<N>(x, sb, &next, swept);
                fixed::selinv_step_body::<N>(x, a, a, &mut s);
            }
            out.extend(cols);
            out.extend([head_c, head_d, s]);
            out.iter()
                .map(|v| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(true), run(false), "N = {N}");
    }

    /// Both instantiations of every fixed-size body, by direct call, on the
    /// same operands: the outputs must agree to the bit.  (On a host
    /// without AVX2 there is only one instantiation to run, and only the
    /// product's loop nest to compare it with.)
    #[test]
    fn fixed_bodies_are_bitwise_equal_across_instantiations() {
        check_product::<4>(true);
        check_product::<8>(true);
        #[cfg(target_arch = "x86_64")]
        if use_avx2() {
            check_steps::<4, 8>();
            check_steps::<8, 16>();
        }
    }
}
