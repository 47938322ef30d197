//! Every fixed-shape kernel of the crate, on stack-resident columns: the
//! `N × N` product `gemm` runs at `N ∈ {4, 8}`, and the serving flush.
//!
//! A stream of state dimension `n ∈ {4, 8}` whose every step is observed
//! through `n` rows runs one shape over and over: absorb the observation
//! into the `n × n` head, eliminate the state through a square evolution,
//! invert the triangle it leaves, and — once per flush — walk the window
//! back down.  At those sizes the arithmetic is a few thousand flops; what
//! the general bodies spend around it (pooled temporaries, stacking and
//! slicing copies, per-reflector dispatch) costs more than the flops do.
//! The kernels here do the same Householder eliminations on `[[f64; R]; C]`
//! columns held on the stack: operands are loaded once, everything in
//! between lives in registers and stack slots with compile-time trip counts,
//! and the results are stored once.  The product alone reads its operands
//! where they lie and updates `c` in place — a round trip of `c` through
//! the stack only added traffic — and has no entry here: [`crate::gemm`]
//! tests the shape and calls it.
//!
//! Each kernel is **one body in plain Rust** — no intrinsics, no `mul_add`,
//! every reduction spelled out over four explicit lanes so the summation
//! order is fixed by the source, not by the vectorizer.  [`crate::simd`]
//! instantiates each body twice: inside an `avx2,fma` `#[target_feature]`
//! wrapper (where the compiler may use 256-bit registers, but still may not
//! fuse or reassociate) and portably.  The two are therefore bitwise equal,
//! and which one runs depends on the CPU alone while what it computes does
//! not.
//!
//! The step entries below are shape-dispatched: they return `false`, having
//! touched nothing but the shape of their outputs, when the operands are not
//! the static shape, when the reference kernels are forced, or when the
//! eliminated triangle fails the effective-rank test — the caller then runs
//! the general bodies on the same, untouched inputs.  They agree with those
//! bodies to rounding, not bitwise; each is a pure function of its operands.

use crate::qr::{householder_scaled, in_range, rank_tol, reflect};
use crate::{simd, workspace, Matrix};

/// A square block as `N` columns of `N` entries.
type Sq<const N: usize> = [[f64; N]; N];

/// `true` when blocks of order `n` have a static body and it may run.
fn covered(n: usize) -> bool {
    matches!(n, 4 | 8) && !workspace::reference_kernels()
}

fn is_square(m: &Matrix, n: usize) -> bool {
    m.rows() == n && m.cols() == n
}

fn is_column(m: &Matrix, n: usize) -> bool {
    m.rows() == n && m.cols() == 1
}

/// Operands of [`forward_step`] as column-major slices (`N·N` or `N` long).
pub(crate) struct StepIn<'a> {
    pub(crate) head_c: &'a [f64],
    pub(crate) head_d: &'a [f64],
    pub(crate) obs_c: &'a [f64],
    pub(crate) obs_rhs: &'a [f64],
    pub(crate) evo_b: &'a [f64],
    pub(crate) evo_d: &'a [f64],
    pub(crate) evo_rhs: &'a [f64],
}

/// Results of [`forward_step`], same layout.
pub(crate) struct StepOut<'a> {
    pub(crate) diag: &'a mut [f64],
    pub(crate) off: &'a mut [f64],
    pub(crate) rhs: &'a mut [f64],
    pub(crate) next_c: &'a mut [f64],
    pub(crate) next_d: &'a mut [f64],
    /// `(X, A, b)`, when the caller wants the downward sweep's terms.
    pub(crate) terms: Option<(&'a mut [f64], &'a mut [f64], &'a mut [f64])>,
}

/// One forward step of the streaming sweep on a state of dimension
/// `n ∈ {4, 8}`, in one call: *absorb* the whitened observation rows
/// `obs = (G, o)` into `head = (C, d)` by a Householder QR of
/// `[C; G | d; o]`; *eliminate* the state through the whitened evolution
/// `evo = (B, D, r)` — the triangular-on-square stack `[R; −B]` with
/// companions `[0 d; D r]`; and, when `terms` is given, form `W = R_jj⁻¹`
/// once and finish `X = W·R_{j,j+1}`, `A = W·Wᵀ` and `b = W·rhs` from it.
///
/// On `true`, `rows = (R_jj, R_{j,j+1}, rhs)` is the state's block row of
/// `R`, `next` the head on the next state and `terms = (X, A, b)` what the
/// downward sweep reads of the row: `m_j = b − X·m_{j+1}` and
/// `S_jj = A + X·S_{j+1,j+1}·Xᵀ`.  On `false` — some block is not `n × n` (`n × 1` for the
/// right-hand sides), `n` has no static body, the reference kernels are
/// forced, or `R_jj` fails the effective-rank test of
/// [`crate::effective_rank_tol`] on a `2n`-row block — the inputs are
/// untouched and the outputs hold nothing meaningful.  A step that runs
/// counts once in `dense.kernel.dispatch.mono`.
pub fn forward_step(
    head: (&Matrix, &Matrix),
    obs: (&Matrix, &Matrix),
    evo: (&Matrix, &Matrix, &Matrix),
    rows: (&mut Matrix, &mut Matrix, &mut Matrix),
    next: (&mut Matrix, &mut Matrix),
    terms: Option<(&mut Matrix, &mut Matrix, &mut Matrix)>,
) -> bool {
    let n = head.0.cols();
    if !(covered(n)
        && is_square(head.0, n)
        && is_column(head.1, n)
        && is_square(obs.0, n)
        && is_column(obs.1, n)
        && is_square(evo.0, n)
        && is_square(evo.1, n)
        && is_column(evo.2, n))
    {
        return false;
    }
    simd::note_mono();
    let input = StepIn {
        head_c: head.0.as_slice(),
        head_d: head.1.as_slice(),
        obs_c: obs.0.as_slice(),
        obs_rhs: obs.1.as_slice(),
        evo_b: evo.0.as_slice(),
        evo_d: evo.1.as_slice(),
        evo_rhs: evo.2.as_slice(),
    };
    let mut output = StepOut {
        diag: rows.0.resize_for_overwrite(n, n),
        off: rows.1.resize_for_overwrite(n, n),
        rhs: rows.2.resize_for_overwrite(n, 1),
        next_c: next.0.resize_for_overwrite(n, n),
        next_d: next.1.resize_for_overwrite(n, 1),
        terms: terms.map(|(x, a, b)| {
            (
                x.resize_for_overwrite(n, n),
                a.resize_for_overwrite(n, n),
                b.resize_for_overwrite(n, 1),
            )
        }),
    };
    match n {
        4 => simd::forward_step::<4, 8>(&input, &mut output),
        _ => simd::forward_step::<8, 16>(&input, &mut output),
    }
}

/// The absorb half of [`forward_step`] alone, for the step that has no
/// successor yet: `out` becomes the square upper-triangular head of
/// `[C; G | d; o]`.  `false` (inputs untouched) under the same shape and
/// reference-kernel conditions; there is no rank test — a head may be
/// singular, the solve that reads it reports that.
pub fn absorb_step(
    head: (&Matrix, &Matrix),
    obs: (&Matrix, &Matrix),
    out: (&mut Matrix, &mut Matrix),
) -> bool {
    let n = head.0.cols();
    if !(covered(n)
        && is_square(head.0, n)
        && is_column(head.1, n)
        && is_square(obs.0, n)
        && is_column(obs.1, n))
    {
        return false;
    }
    let (c, d) = (head.0.as_slice(), head.1.as_slice());
    let (g, o) = (obs.0.as_slice(), obs.1.as_slice());
    let out_c = out.0.resize_for_overwrite(n, n);
    let out_d = out.1.resize_for_overwrite(n, 1);
    match n {
        4 => simd::absorb::<4, 8>(c, d, g, o, out_c, out_d),
        _ => simd::absorb::<8, 16>(c, d, g, o, out_c, out_d),
    }
    true
}

/// One step of the window's back substitution: `mean ← R_jj⁻¹ (rhs −
/// R_{j,j+1}·next)` with every operand loaded once and the column kept in
/// registers — the downward sweep of a window that keeps its rows (no
/// covariances).  `false` (`mean` then holds nothing meaningful) when the
/// blocks are not the static shape, the reference kernels are forced or
/// `R_jj` has a zero pivot.
pub fn back_substitute(
    diag: &Matrix,
    off: &Matrix,
    rhs: &Matrix,
    next: &[f64],
    mean: &mut Vec<f64>,
) -> bool {
    let n = diag.rows();
    if !(covered(n)
        && is_square(diag, n)
        && is_square(off, n)
        && is_column(rhs, n)
        && next.len() == n)
    {
        return false;
    }
    // lint: allow(alloc, "sizes the caller's reused mean to the state once; a mean already of that size stays put")
    mean.resize(n, 0.0);
    let (r, o, b) = (diag.as_slice(), off.as_slice(), rhs.as_slice());
    match n {
        4 => simd::back_substitute::<4>(r, o, b, next, mean),
        _ => simd::back_substitute::<8>(r, o, b, next, mean),
    }
}

/// One mean of the downward sweep from the terms [`forward_step`] formed:
/// `mean ← b − X·next`, one `n × n` mat-vec and no triangular solve.
/// `false` (nothing written) when the blocks are not the static shape or the
/// reference kernels are forced.
pub fn mean_step(x: &Matrix, b: &Matrix, next: &[f64], mean: &mut Vec<f64>) -> bool {
    let n = x.rows();
    if !(covered(n) && is_square(x, n) && is_column(b, n) && next.len() == n) {
        return false;
    }
    // lint: allow(alloc, "sizes the caller's reused mean to the state once; a mean already of that size stays put")
    mean.resize(n, 0.0);
    let (x, b) = (x.as_slice(), b.as_slice());
    match n {
        4 => simd::mean_step::<4>(x, b, next, mean),
        _ => simd::mean_step::<8>(x, b, next, mean),
    }
    true
}

/// One step of the bidiagonal SelInv recursion: `s ← sym(A + X·S·Xᵀ)` with
/// `S = s_next`, the product `X·S` never leaving the stack.  `false`
/// (nothing written) when the blocks are not the static shape or the
/// reference kernels are forced.
pub fn selinv_step(x: &Matrix, a: &Matrix, s_next: &Matrix, s: &mut Matrix) -> bool {
    let n = x.rows();
    if !(covered(n) && is_square(x, n) && is_square(a, n) && is_square(s_next, n)) {
        return false;
    }
    let out = s.resize_for_overwrite(n, n);
    let (x, a, s_next) = (x.as_slice(), a.as_slice(), s_next.as_slice());
    match n {
        4 => simd::selinv_step::<4>(x, a, s_next, out),
        _ => simd::selinv_step::<8>(x, a, s_next, out),
    }
    true
}

// ---------------------------------------------------------------------------
// Bodies.  `#[inline(always)]` so each lands inside its `simd` wrapper and
// is compiled with that wrapper's target features.
// ---------------------------------------------------------------------------

#[inline(always)]
fn load_sq<const N: usize>(m: &mut Sq<N>, src: &[f64]) {
    for (col, chunk) in m.iter_mut().zip(src[..N * N].chunks_exact(N)) {
        col.copy_from_slice(chunk);
    }
}

#[inline(always)]
fn store_sq<const N: usize>(m: &Sq<N>, dst: &mut [f64]) {
    for (col, chunk) in m.iter().zip(dst[..N * N].chunks_exact_mut(N)) {
        chunk.copy_from_slice(col);
    }
}

/// The four lane sums of `x · y` over entries `4·q0..R`.
#[inline(always)]
fn dot_lanes<const R: usize>(x: &[f64; R], y: &[f64; R], q0: usize) -> [f64; 4] {
    let mut lanes = [0.0f64; 4];
    for q in q0..R / 4 {
        for l in 0..4 {
            lanes[l] += x[4 * q + l] * y[4 * q + l];
        }
    }
    lanes
}

/// Lane sums combined `(0+2) + (1+3)`.
#[inline(always)]
fn hsum(lanes: &[f64; 4]) -> f64 {
    (lanes[0] + lanes[2]) + (lanes[1] + lanes[3])
}

/// `x · y` over entries `4·q0..R`.
#[inline(always)]
fn dot<const R: usize>(x: &[f64; R], y: &[f64; R], q0: usize) -> f64 {
    hsum(&dot_lanes(x, y, q0))
}

/// `c ← c − w·v` over entries `4·q0..R`.
#[inline(always)]
fn sub_scaled<const R: usize>(c: &mut [f64; R], w: f64, v: &[f64; R], q0: usize) {
    for i in 4 * q0..R {
        c[i] -= w * v[i];
    }
}

/// The reflector of `qr.rs` (`householder`) for the column `alpha` over
/// `v[from..]`, overwriting `v[from..]` with the reflector tail.  The
/// out-of-range path runs on a copy of `v`, so `v`'s address never reaches
/// an out-of-line call and the column can stay in registers.
#[inline(always)]
fn reflector<const R: usize>(
    alpha: f64,
    norm2: f64,
    v: &mut [f64; R],
    from: usize,
) -> Option<(f64, f64)> {
    if in_range(norm2) {
        return Some(reflect(alpha, norm2.sqrt(), &mut v[from..]));
    }
    let mut copy = *v;
    let out = householder_scaled(alpha, &mut copy[from..]);
    *v = copy;
    out
}

/// Calls `$f::<.., J>($args)` for `J = 0..8`, in order.  The pivot index of
/// an elimination reaches its body as a constant this way (a body returns at
/// once for `J ≥ N`), so every row range, lane mask and chunk offset below
/// is resolved at compile time and the eliminations are straight-line code.
macro_rules! unrolled {
    ($f:ident::<$($g:ident),+>($($arg:expr),*)) => {
        $f::<$($g),+, 0>($($arg),*);
        $f::<$($g),+, 1>($($arg),*);
        $f::<$($g),+, 2>($($arg),*);
        $f::<$($g),+, 3>($($arg),*);
        $f::<$($g),+, 4>($($arg),*);
        $f::<$($g),+, 5>($($arg),*);
        $f::<$($g),+, 6>($($arg),*);
        $f::<$($g),+, 7>($($arg),*);
    };
}

/// Reflector `J` of [`absorb_stack`]: built from rows `J..` of column `J`,
/// applied to the columns right of it and to the right-hand side.  Rows
/// `J + 1..` split into the rest of the four-row chunk that holds row `J`
/// (at most three rows, handled one by one) and the whole chunks below it
/// (lane loops), so no lane is ever masked.
#[inline(always)]
fn absorb_pivot<const N: usize, const N2: usize, const J: usize>(
    s: &mut [[f64; N2]; N],
    rhs: &mut [f64; N2],
) {
    if J >= N {
        return;
    }
    let q1 = J / 4 + 1; // first whole chunk below row J
    let mut v = s[J];
    let mut norm2 = dot(&v, &v, q1);
    for vi in &v[J..4 * q1] {
        norm2 += vi * vi;
    }
    let Some((beta, tau)) = reflector(v[J], norm2, &mut v, J + 1) else {
        return; // zero column: τ = 0, nothing to reflect
    };
    s[J][J] = beta;
    // Lane sums of every column first, reductions second, updates third:
    // three passes over independent columns instead of one dependent chain
    // per column.
    let mut lanes = [[0.0f64; 4]; N];
    for k in J + 1..N {
        lanes[k] = dot_lanes(&v, &s[k], q1);
    }
    let rhs_lanes = dot_lanes(&v, rhs, q1);
    for k in J + 1..N {
        let w = absorb_weight::<N2, J>(&v, tau, &s[k], &lanes[k]);
        absorb_update::<N2, J>(&v, w, &mut s[k]);
    }
    let w = absorb_weight::<N2, J>(&v, tau, rhs, &rhs_lanes);
    absorb_update::<N2, J>(&v, w, rhs);
}

/// `τ·(vᵀc)` over rows `J..` of column `c` for reflector `J` of
/// [`absorb_pivot`] (`v[J]` implicitly one), given the lane sums over the
/// whole chunks below row `J`.
#[inline(always)]
fn absorb_weight<const R: usize, const J: usize>(
    v: &[f64; R],
    tau: f64,
    c: &[f64; R],
    lanes: &[f64; 4],
) -> f64 {
    let mut w = c[J] + hsum(lanes);
    for i in J + 1..4 * (J / 4 + 1) {
        w += v[i] * c[i];
    }
    w * tau
}

/// `c ← c − w·v` over rows `J..`.
#[inline(always)]
fn absorb_update<const R: usize, const J: usize>(v: &[f64; R], w: f64, c: &mut [f64; R]) {
    let q1 = J / 4 + 1;
    c[J] -= w;
    for i in J + 1..4 * q1 {
        c[i] -= w * v[i];
    }
    sub_scaled(c, w, v, q1);
}

/// Reflector `J` of the stack `[R; below]` with companions `[off rhs;
/// next_c next_d]`: built from the virtual column `[R[J,J]; below[:,J]]`,
/// it touches row `J` of the tops and all of the bottoms.
#[inline(always)]
fn stack_pivot<const N: usize, const J: usize>(
    r: &mut Sq<N>,
    below: &mut Sq<N>,
    off: &mut Sq<N>,
    next_c: &mut Sq<N>,
    rhs: &mut [f64; N],
    next_d: &mut [f64; N],
) {
    if J >= N {
        return;
    }
    let alpha = r[J][J];
    let mut v = below[J];
    let norm2 = alpha * alpha + dot(&v, &v, 0);
    let Some((beta, tau)) = reflector(alpha, norm2, &mut v, 0) else {
        return;
    };
    r[J][J] = beta;
    for k in J + 1..N {
        let w = tau * (r[k][J] + dot(&v, &below[k], 0));
        r[k][J] -= w;
        sub_scaled(&mut below[k], w, &v, 0);
    }
    for c in 0..N {
        let w = tau * (off[c][J] + dot(&v, &next_c[c], 0));
        off[c][J] -= w;
        sub_scaled(&mut next_c[c], w, &v, 0);
    }
    let w = tau * (rhs[J] + dot(&v, next_d, 0));
    rhs[J] -= w;
    sub_scaled(next_d, w, &v, 0);
}

/// Householder QR of the stack `[C; G]` with right-hand side `[d; o]`:
/// leaves the triangle in `r` (zero below the diagonal) and the top `N`
/// transformed right-hand-side entries in `top`.
#[inline(always)]
fn absorb_stack<const N: usize, const N2: usize>(
    c: &[f64],
    d: &[f64],
    g: &[f64],
    o: &[f64],
    r: &mut Sq<N>,
    top: &mut [f64; N],
) {
    let (c, g) = (&c[..N * N], &g[..N * N]);
    let mut s = [[0.0f64; N2]; N];
    for (j, col) in s.iter_mut().enumerate() {
        col[..N].copy_from_slice(&c[j * N..(j + 1) * N]);
        col[N..].copy_from_slice(&g[j * N..(j + 1) * N]);
    }
    let mut rhs = [0.0f64; N2];
    rhs[..N].copy_from_slice(&d[..N]);
    rhs[N..].copy_from_slice(&o[..N]);

    unrolled!(absorb_pivot::<N, N2>(&mut s, &mut rhs));

    for (k, col) in r.iter_mut().enumerate() {
        for (i, x) in col.iter_mut().enumerate() {
            *x = if i <= k { s[k][i] } else { 0.0 };
        }
    }
    top.copy_from_slice(&rhs[..N]);
}

/// Body of [`absorb_step`].
#[inline(always)]
pub(crate) fn absorb_body<const N: usize, const N2: usize>(
    c: &[f64],
    d: &[f64],
    g: &[f64],
    o: &[f64],
    out_c: &mut [f64],
    out_d: &mut [f64],
) {
    let mut r = [[0.0f64; N]; N];
    let mut top = [0.0f64; N];
    absorb_stack::<N, N2>(c, d, g, o, &mut r, &mut top);
    store_sq(&r, out_c);
    out_d[..N].copy_from_slice(&top);
}

/// `w ← U⁻¹` for an upper triangle with non-zero diagonal (and zeros below
/// it), right-looking: column `j` of the inverse is
/// `−U⁻¹[.., ..j] · U[..j, j] / U[j, j]`, and as soon as column `k` is
/// final its contributions `w[k]·U[k, j]` go into every later column's
/// accumulator — independent chains where a left-looking sweep has one.
/// Each entry still sums its products in `k` order from zero, so the
/// inverse is bitwise the left-looking one.  Full-length lane loops,
/// because earlier columns are zero where they must not contribute.
#[inline(always)]
fn invert_upper<const N: usize>(r: &Sq<N>, w: &mut Sq<N>) {
    let mut acc = [[0.0f64; N]; N];
    for j in 0..N {
        let pivot = 1.0 / r[j][j];
        let mut col = acc[j];
        for x in col.iter_mut() {
            *x *= -pivot;
        }
        col[j] = pivot;
        w[j] = col;
        for (k, later) in acc.iter_mut().enumerate().skip(j + 1) {
            let ujk = r[k][j];
            for i in 0..N {
                later[i] += col[i] * ujk;
            }
        }
    }
}

/// `c ← c + a·b`, four columns of `c` at a time: each column of `a` is
/// loaded once per block and feeds four independent accumulations.  Every
/// entry sums its products in `k` order, so the result is bitwise that of
/// a column-at-a-time loop.
#[inline(always)]
fn mul_acc<const N: usize>(c: &mut Sq<N>, a: &Sq<N>, b: &Sq<N>) {
    mul_acc_by(c, a, |k, j| b[j][k]);
}

/// [`mul_acc`] on the first `N` columns of `c` and `a`, wherever they are
/// held, with `b[k, j] = coeff(k, j)`.
#[inline(always)]
fn mul_acc_by<const N: usize>(
    c: &mut [[f64; N]],
    a: &[[f64; N]],
    coeff: impl Fn(usize, usize) -> f64,
) {
    for j0 in (0..N).step_by(4) {
        let mut cols = [c[j0], c[j0 + 1], c[j0 + 2], c[j0 + 3]];
        for (k, ak) in a[..N].iter().enumerate() {
            for (jj, col) in cols.iter_mut().enumerate() {
                let bkj = coeff(k, j0 + jj);
                for i in 0..N {
                    col[i] += ak[i] * bkj;
                }
            }
        }
        c[j0..j0 + 4].copy_from_slice(&cols);
    }
}

/// `c ← c + a·bᵀ`, summing `k` from `k0(j)` — the first `k` at which column
/// `j` of `bᵀ` can be non-zero — four columns of `c` at a time, each entry
/// in `k` order as in [`mul_acc`].
#[inline(always)]
fn mul_nt_acc<const N: usize>(c: &mut Sq<N>, a: &Sq<N>, b: &Sq<N>, k0: impl Fn(usize) -> usize) {
    for j0 in (0..N).step_by(4) {
        let from = [k0(j0), k0(j0 + 1), k0(j0 + 2), k0(j0 + 3)];
        let mut cols = [c[j0], c[j0 + 1], c[j0 + 2], c[j0 + 3]];
        let first = from.iter().copied().min().unwrap_or(N);
        for k in first..N {
            for (jj, col) in cols.iter_mut().enumerate() {
                if k < from[jj] {
                    continue;
                }
                let bjk = b[k][j0 + jj];
                for i in 0..N {
                    col[i] += a[k][i] * bjk;
                }
            }
        }
        c[j0..j0 + 4].copy_from_slice(&cols);
    }
}

/// Body of [`forward_step`].
#[inline(always)]
pub(crate) fn forward_step_body<const N: usize, const N2: usize>(
    input: &StepIn<'_>,
    out: &mut StepOut<'_>,
) -> bool {
    let mut r = [[0.0f64; N]; N];
    let mut rhs = [0.0f64; N];
    absorb_stack::<N, N2>(
        input.head_c,
        input.head_d,
        input.obs_c,
        input.obs_rhs,
        &mut r,
        &mut rhs,
    );

    // The stack [R; −B] with companions [0 d; D r].
    let mut below = [[0.0f64; N]; N];
    load_sq(&mut below, input.evo_b);
    for col in below.iter_mut() {
        for x in col.iter_mut() {
            *x = -*x;
        }
    }
    let mut off = [[0.0f64; N]; N];
    let mut next_c = [[0.0f64; N]; N];
    load_sq(&mut next_c, input.evo_d);
    let mut next_d = [0.0f64; N];
    next_d.copy_from_slice(&input.evo_rhs[..N]);
    unrolled!(stack_pivot::<N>(
        &mut r,
        &mut below,
        &mut off,
        &mut next_c,
        &mut rhs,
        &mut next_d
    ));

    let max_diag = (0..N).fold(0.0f64, |m, j| m.max(r[j][j].abs()));
    let tol = rank_tol(max_diag, N2, N);
    if !(0..N).all(|j| r[j][j].abs() > tol) {
        return false;
    }

    store_sq(&r, out.diag);
    store_sq(&off, out.off);
    out.rhs[..N].copy_from_slice(&rhs);
    store_sq(&next_c, out.next_c);
    out.next_d[..N].copy_from_slice(&next_d);
    if let Some((x_out, a_out, b_out)) = out.terms.as_mut() {
        let mut w = [[0.0f64; N]; N];
        invert_upper(&r, &mut w);
        let mut b = [0.0f64; N];
        for (wk, &rk) in w.iter().zip(&rhs) {
            for i in 0..N {
                b[i] += wk[i] * rk;
            }
        }
        b_out[..N].copy_from_slice(&b);
        let mut x = [[0.0f64; N]; N];
        mul_acc(&mut x, &w, &off);
        store_sq(&x, x_out);
        // W is upper triangular: W[j,k] = 0 for k < j.  Entries (i,j) and
        // (j,i) sum the same products in the same order, so A is symmetric
        // to the bit without a mirror pass.
        let mut a = [[0.0f64; N]; N];
        mul_nt_acc(&mut a, &w, &w, |j| j);
        store_sq(&a, a_out);
    }
    true
}

/// Body of the `N × N` product [`crate::gemm`] runs on square operands (and
/// [`simd::gemm_mono`]): `c ← β·c + α·a·op(b)`, `op(b) = bᵀ` when
/// `b_trans`.  `c` is scaled in place first — zeroed when `β = 0`, so
/// whatever it held does not reach the result — and then each entry adds
/// its products `a[i,k]·(α·op(b)[k,j])` in `k` order, through [`mul_acc`]'s
/// loop straight on `c`'s columns.
#[inline(always)]
pub(crate) fn product_body<const N: usize>(
    alpha: f64,
    a: &[f64],
    b: &[f64],
    b_trans: bool,
    beta: f64,
    c: &mut [f64],
) {
    let (a, b, c) = (&a[..N * N], &b[..N * N], &mut c[..N * N]);
    if beta == 0.0 {
        c.fill(0.0);
    } else if beta != 1.0 {
        for x in c.iter_mut() {
            *x *= beta;
        }
    }
    let (a, c) = (a.as_chunks::<N>().0, c.as_chunks_mut::<N>().0);
    if b_trans {
        mul_acc_by(c, a, |k, j| alpha * b[k * N + j]);
    } else {
        mul_acc_by(c, a, |k, j| alpha * b[j * N + k]);
    }
}

/// Body of [`back_substitute`].
#[inline(always)]
pub(crate) fn back_substitute_body<const N: usize>(
    diag: &[f64],
    off: &[f64],
    rhs: &[f64],
    next: &[f64],
    mean: &mut [f64],
) -> bool {
    let (diag, off) = (&diag[..N * N], &off[..N * N]);
    let mut recip = [0.0f64; N];
    for k in 0..N {
        let pivot = diag[k * N + k];
        if pivot == 0.0 {
            return false;
        }
        recip[k] = 1.0 / pivot;
    }
    let mut y = [0.0f64; N];
    y.copy_from_slice(&rhs[..N]);
    for (c, &mc) in next[..N].iter().enumerate() {
        for i in 0..N {
            y[i] -= off[c * N + i] * mc;
        }
    }
    for k in (0..N).rev() {
        let yk = y[k] * recip[k];
        for i in 0..N {
            let u = if i < k { diag[k * N + i] } else { 0.0 };
            y[i] -= yk * u;
        }
        y[k] = yk;
    }
    mean[..N].copy_from_slice(&y);
    true
}

/// Body of [`mean_step`].
#[inline(always)]
pub(crate) fn mean_step_body<const N: usize>(x: &[f64], b: &[f64], next: &[f64], mean: &mut [f64]) {
    let x = &x[..N * N];
    let mut y = [0.0f64; N];
    y.copy_from_slice(&b[..N]);
    for (c, &mc) in next[..N].iter().enumerate() {
        for i in 0..N {
            y[i] -= x[c * N + i] * mc;
        }
    }
    mean[..N].copy_from_slice(&y);
}

/// Body of [`selinv_step`].
#[inline(always)]
pub(crate) fn selinv_step_body<const N: usize>(
    x: &[f64],
    a: &[f64],
    s_next: &[f64],
    s: &mut [f64],
) {
    let mut xm = [[0.0f64; N]; N];
    load_sq(&mut xm, x);
    let mut next = [[0.0f64; N]; N];
    load_sq(&mut next, s_next);
    let mut xs = [[0.0f64; N]; N];
    mul_acc(&mut xs, &xm, &next);
    let mut out = [[0.0f64; N]; N];
    load_sq(&mut out, a);
    mul_nt_acc(&mut out, &xs, &xm, |_| 0);
    // sym(M) = (M + Mᵀ)/2 column by column against a transposed copy:
    // entries (i,j) and (j,i) add the same two numbers, so the result is
    // symmetric to the bit, and no entry is patched in place between the
    // product and the store.
    let mut transposed = [[0.0f64; N]; N];
    for j in 0..N {
        for i in 0..N {
            transposed[j][i] = out[i][j];
        }
    }
    for (col, (m, mt)) in s[..N * N]
        .chunks_exact_mut(N)
        .zip(out.iter().zip(&transposed))
    {
        for i in 0..N {
            col[i] = 0.5 * (m[i] + mt[i]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{matmul, matmul_nt, matmul_tn};
    use crate::random::deterministic_well_conditioned as sample;
    use crate::{qr_tri_stack_applying, tri, QrFactor};

    /// The general bodies, spelled as `kalman-model` chains them.
    #[allow(clippy::type_complexity)]
    fn general_step(
        c: &Matrix,
        d: &Matrix,
        g: &Matrix,
        o: &Matrix,
        b: &Matrix,
        dd: &Matrix,
        r: &Matrix,
    ) -> (
        Matrix,
        Matrix,
        Matrix,
        Matrix,
        Matrix,
        Matrix,
        Matrix,
        Matrix,
    ) {
        let n = c.cols();
        let mut top = Matrix::vstack(&[d, o]);
        let mut diag = QrFactor::new_applying(Matrix::vstack(&[c, g]), &mut [&mut top]).r();
        let mut rhs = top.sub_matrix(0, 0, n, 1);
        let mut below = -b;
        let mut off = Matrix::zeros(n, n);
        let (mut next_c, mut next_d) = (dd.clone(), r.clone());
        qr_tri_stack_applying(
            &mut diag,
            &mut below,
            &mut [(&mut off, &mut next_c), (&mut rhs, &mut next_d)],
        );
        let mut x = off.clone();
        tri::solve_upper_in_place(&diag, &mut x).unwrap();
        let a = tri::inv_gram_upper(&diag).unwrap();
        let mut b = rhs.clone();
        tri::solve_upper_in_place(&diag, &mut b).unwrap();
        (diag, off, rhs, next_c, next_d, x, a, b)
    }

    /// `true` under `KALMAN_REF_KERNELS=1`, where every entry declines every
    /// shape (checked on one) and there is no second body to compare.
    fn oracle_forced() -> bool {
        if !workspace::reference_kernels() {
            return false;
        }
        let sq = sample(4, 4);
        assert!(!selinv_step(&sq, &sq, &sq, &mut Matrix::default()));
        true
    }

    #[test]
    fn forward_step_matches_the_general_bodies() {
        if oracle_forced() {
            return;
        }
        for n in [4usize, 8] {
            let c = sample(n, n);
            let g = sample(n + 1, n).sub_matrix(1, 0, n, n);
            let b = sample(n + 2, n).sub_matrix(2, 0, n, n);
            let dd = sample(n + 3, n).sub_matrix(3, 0, n, n);
            let d = sample(n, 1);
            let o = sample(n + 1, 1).sub_matrix(1, 0, n, 1);
            let r = sample(n + 2, 1).sub_matrix(2, 0, n, 1);
            let want = general_step(&c, &d, &g, &o, &b, &dd, &r);

            let mut got: [Matrix; 8] = Default::default();
            let [diag, off, rhs, next_c, next_d, x, a, sb] = &mut got;
            assert!(forward_step(
                (&c, &d),
                (&g, &o),
                (&b, &dd, &r),
                (diag, off, rhs),
                (next_c, next_d),
                Some((x, a, sb)),
            ));
            let want = [
                want.0, want.1, want.2, want.3, want.4, want.5, want.6, want.7,
            ];
            let names = ["R_jj", "R_j,j+1", "rhs", "next C", "next d", "X", "A", "b"];
            for ((got, want), name) in got.iter().zip(&want).zip(names) {
                let scale = 1.0 + want.max_abs();
                assert!(
                    got.approx_eq(want, 1e-12 * scale),
                    "n={n} {name}: {}",
                    got.max_abs_diff(want)
                );
            }
            assert!(got[0].is_upper_triangular());
            // A is symmetric to the bit.
            assert!(got[6].approx_eq(&got[6].transpose(), 0.0));

            // The absorb half alone is the same triangle.
            let (mut hc, mut hd) = (Matrix::default(), Matrix::default());
            assert!(absorb_step((&c, &d), (&g, &o), (&mut hc, &mut hd)));
            let gram = &matmul_tn(&c, &c) + &matmul_tn(&g, &g);
            assert!(matmul_tn(&hc, &hc).approx_eq(&gram, 1e-12 * (1.0 + gram.max_abs())));
            let moment = &matmul_tn(&c, &d) + &matmul_tn(&g, &o);
            assert!(matmul_tn(&hc, &hd).approx_eq(&moment, 1e-12 * (1.0 + moment.max_abs())));
        }
    }

    /// Operands scaled by `s` give rows and head scaled by `s`, also where
    /// a plain sum of squares would overflow (1e160), lose bits in
    /// subnormals (1e−160), underflow to zero (1e−170) or leave a norm too
    /// small to invert (1e−300).
    #[test]
    fn extreme_scales_step_to_the_scaled_rows() {
        if oracle_forced() {
            return;
        }
        for n in [4usize, 8] {
            let c = sample(n, n);
            let g = sample(n + 1, n).sub_matrix(1, 0, n, n);
            let b = sample(n + 2, n).sub_matrix(2, 0, n, n);
            let dd = sample(n + 3, n).sub_matrix(3, 0, n, n);
            let (d, o, r) = (sample(n, 1), sample(n + 1, 1), sample(n + 2, 1));
            let (o, r) = (o.sub_matrix(1, 0, n, 1), r.sub_matrix(2, 0, n, 1));
            let run = |s: f64| {
                let mut out: [Matrix; 5] = Default::default();
                let [diag, off, rhs, next_c, next_d] = &mut out;
                assert!(
                    forward_step(
                        (&c.scaled(s), &d.scaled(s)),
                        (&g.scaled(s), &o.scaled(s)),
                        (&b.scaled(s), &dd.scaled(s), &r.scaled(s)),
                        (diag, off, rhs),
                        (next_c, next_d),
                        None,
                    ),
                    "n={n} at {s:e}"
                );
                out
            };
            let want = run(1.0);
            for s in [1e160, 1e-160, 1e-170, 1e-300] {
                for (block, (got, want)) in run(s).iter().zip(&want).enumerate() {
                    let tol = 1e-12 * (1.0 + want.max_abs());
                    for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
                        assert!(
                            (g / s - w).abs() <= tol,
                            "n={n} at {s:e}, block {block}: {g:e}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn uncovered_shapes_and_rank_failures_are_refused() {
        if oracle_forced() {
            return;
        }
        let mut out: [Matrix; 5] = Default::default();
        let mut step = |n: usize, c: &Matrix, g: &Matrix| {
            let col = sample(n, 1);
            let sq = sample(n, n);
            let [diag, off, rhs, next_c, next_d] = &mut out;
            forward_step(
                (c, &col),
                (g, &sample(g.rows(), 1)),
                (&sq, &sq, &col),
                (diag, off, rhs),
                (next_c, next_d),
                None,
            )
        };
        assert!(step(4, &sample(4, 4), &sample(4, 4)));
        assert!(!step(6, &sample(6, 6), &sample(6, 6)), "n = 6 is dynamic");
        assert!(!step(4, &sample(3, 4), &sample(4, 4)), "short head");
        assert!(!step(4, &sample(4, 4), &sample(2, 4)), "two rows");
        // A zero column: τ = 0 there, the rank test refuses the triangle,
        // and nothing turned into NaN on the way.
        let mut c = sample(8, 8);
        let mut g = sample(8, 8);
        c.col_mut(2).fill(0.0);
        g.col_mut(2).fill(0.0);
        let mut b = sample(8, 8);
        b.col_mut(2).fill(0.0);
        let col = sample(8, 1);
        let [diag, off, rhs, next_c, next_d] = &mut out;
        assert!(!forward_step(
            (&c, &col),
            (&g, &col),
            (&b, &sample(8, 8), &col),
            (diag, off, rhs),
            (next_c, next_d),
            None,
        ));
        let (mut hc, mut hd) = (Matrix::default(), Matrix::default());
        assert!(absorb_step((&c, &col), (&g, &col), (&mut hc, &mut hd)));
        assert_eq!(hc[(2, 2)], 0.0);
        assert!(hc.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn back_half_matches_the_general_loops() {
        if oracle_forced() {
            return;
        }
        for n in [4usize, 8] {
            let diag = sample(n, n).upper_triangular_part();
            let off = sample(n + 1, n).sub_matrix(1, 0, n, n);
            let rhs = sample(n, 1);
            let next: Vec<f64> = sample(n + 2, 1).col(0)[2..].to_vec();
            let mut want = rhs.clone();
            off.sub_mul_vec_into(&next, want.col_mut(0));
            tri::solve_upper_in_place(&diag, &mut want).unwrap();
            let mut mean = Vec::new();
            assert!(back_substitute(&diag, &off, &rhs, &next, &mut mean));
            for (g, w) in mean.iter().zip(want.col(0)) {
                assert!((g - w).abs() <= 1e-12 * (1.0 + want.max_abs()), "n={n}");
            }

            let x = sample(n, n);
            let a = matmul_nt(&off, &off);
            let s_next = matmul_nt(&diag, &diag);
            let mut want = &a + &matmul_nt(&matmul(&x, &s_next), &x);
            want.symmetrize();
            let mut s = Matrix::default();
            assert!(selinv_step(&x, &a, &s_next, &mut s));
            assert!(s.approx_eq(&want, 1e-12 * (1.0 + want.max_abs())), "n={n}");
            assert!(s.approx_eq(&s.transpose(), 0.0));

            let mut singular = diag.clone();
            singular[(1, 1)] = 0.0;
            assert!(!back_substitute(&singular, &off, &rhs, &next, &mut mean));
        }
        let six = sample(6, 6);
        assert!(!selinv_step(&six, &six, &six, &mut Matrix::default()));
    }

    // -----------------------------------------------------------------------
    // The loop nests `invert_upper`, `mul_acc` and `mul_nt_acc` had before
    // they were blocked, kept as oracles: the blocked ones must reproduce
    // them bit for bit.
    // -----------------------------------------------------------------------

    fn oracle_invert_upper<const N: usize>(r: &Sq<N>, w: &mut Sq<N>) {
        for j in 0..N {
            let mut col = [0.0f64; N];
            for k in 0..j {
                let rkj = r[j][k];
                for i in 0..N {
                    col[i] += w[k][i] * rkj;
                }
            }
            let pivot = 1.0 / r[j][j];
            for x in col.iter_mut() {
                *x *= -pivot;
            }
            col[j] = pivot;
            w[j] = col;
        }
    }

    fn oracle_mul_acc<const N: usize>(c: &mut Sq<N>, a: &Sq<N>, b: &Sq<N>) {
        for j in 0..N {
            let mut col = c[j];
            for k in 0..N {
                let bkj = b[j][k];
                for i in 0..N {
                    col[i] += a[k][i] * bkj;
                }
            }
            c[j] = col;
        }
    }

    fn oracle_mul_nt_acc<const N: usize>(
        c: &mut Sq<N>,
        a: &Sq<N>,
        b: &Sq<N>,
        k0: impl Fn(usize) -> usize,
    ) {
        for j in 0..N {
            let mut col = c[j];
            for k in k0(j)..N {
                let bjk = b[k][j];
                for i in 0..N {
                    col[i] += a[k][i] * bjk;
                }
            }
            c[j] = col;
        }
    }

    fn sq<const N: usize>(m: &Matrix) -> Sq<N> {
        let mut out = [[0.0f64; N]; N];
        load_sq(&mut out, m.as_slice());
        out
    }

    fn sq_bits<const N: usize>(m: &Sq<N>) -> Vec<u64> {
        m.iter().flatten().map(|v| v.to_bits()).collect()
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// `selinv_step` through the oracle loop nests.
    fn oracle_selinv<const N: usize>(x: &Matrix, a: &Matrix, s_next: &Matrix) -> Vec<u64> {
        let (xm, next) = (sq::<N>(x), sq::<N>(s_next));
        let mut xs = [[0.0f64; N]; N];
        oracle_mul_acc(&mut xs, &xm, &next);
        let mut out = sq::<N>(a);
        oracle_mul_nt_acc(&mut out, &xs, &xm, |_| 0);
        let mut sym = [[0.0f64; N]; N];
        for j in 0..N {
            for i in 0..N {
                sym[j][i] = 0.5 * (out[j][i] + out[i][j]);
            }
        }
        sq_bits(&sym)
    }

    /// The forward step's `X` and `A` through the oracle loop nests, from the
    /// `R_jj` and `R_{j,j+1}` the step returned.
    fn oracle_terms<const N: usize>(diag: &Matrix, off: &Matrix) -> (Vec<u64>, Vec<u64>) {
        let mut w = [[0.0f64; N]; N];
        oracle_invert_upper(&sq::<N>(diag), &mut w);
        let mut x = [[0.0f64; N]; N];
        oracle_mul_acc(&mut x, &w, &sq::<N>(off));
        let mut a = [[0.0f64; N]; N];
        oracle_mul_nt_acc(&mut a, &w, &w, |j| j);
        (sq_bits(&x), sq_bits(&a))
    }

    fn check_kernel_bits<const N: usize>() {
        use rand::SeedableRng;
        for seed in 0..8u64 {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let mut draw = |rows: usize, cols: usize| crate::random::gaussian(&mut rng, rows, cols);
            let (c, g, b, dd) = (draw(N, N), draw(N, N), draw(N, N), draw(N, N));
            let (d, o, r) = (draw(N, 1), draw(N, 1), draw(N, 1));
            let mut got: [Matrix; 8] = Default::default();
            let [diag, off, rhs, next_c, next_d, x, a, sb] = &mut got;
            assert!(forward_step(
                (&c, &d),
                (&g, &o),
                (&b, &dd, &r),
                (diag, off, rhs),
                (next_c, next_d),
                Some((x, a, sb)),
            ));
            let (want_x, want_a) = oracle_terms::<N>(diag, off);
            assert_eq!(bits(x), want_x, "N={N} seed {seed}: X");
            assert_eq!(bits(a), want_a, "N={N} seed {seed}: A");
            let mut want_b = rhs.clone();
            tri::solve_upper_in_place(diag, &mut want_b).unwrap();
            let scale = 1.0 + want_b.max_abs();
            assert!(
                sb.approx_eq(&want_b, 1e-12 * scale),
                "N={N} seed {seed}: b off by {}",
                sb.max_abs_diff(&want_b)
            );

            // A symmetric S_{j+1,j+1}, as the recursion feeds it.
            let s_next = matmul_nt(&b, &b);
            let mut s = Matrix::default();
            assert!(selinv_step(x, a, &s_next, &mut s));
            assert_eq!(
                bits(&s),
                oracle_selinv::<N>(x, a, &s_next),
                "N={N} seed {seed}: S"
            );
            // And an unsymmetric one, which no entry may tell apart either.
            let mut s = Matrix::default();
            assert!(selinv_step(x, a, &g, &mut s));
            assert_eq!(
                bits(&s),
                oracle_selinv::<N>(x, a, &g),
                "N={N} seed {seed}: S(G)"
            );
        }
    }

    #[test]
    fn blocked_kernels_are_bitwise_the_loop_nests() {
        if oracle_forced() {
            return;
        }
        check_kernel_bits::<4>();
        check_kernel_bits::<8>();
    }

    #[test]
    fn mean_step_matches_the_mat_vec() {
        if oracle_forced() {
            return;
        }
        for n in [4usize, 8] {
            let x = sample(n, n);
            let b = sample(n + 1, 1).sub_matrix(1, 0, n, 1);
            let next: Vec<f64> = sample(n + 2, 1).col(0)[2..].to_vec();
            let mut want = b.clone();
            x.sub_mul_vec_into(&next, want.col_mut(0));
            let mut mean = Vec::new();
            assert!(mean_step(&x, &b, &next, &mut mean));
            assert_eq!(mean.as_slice(), want.col(0), "n={n}");
        }
        let six = sample(6, 6);
        let mut mean = Vec::new();
        assert!(!mean_step(&six, &sample(6, 1), &[0.0; 6], &mut mean));
    }
}
