use crate::simd::{self, KernelKind};
use crate::{workspace, DenseError, Matrix, Result};

/// Householder QR factorization `A = Q R` of an `m × n` matrix with `m >= n`
/// (tall or square).
///
/// `Q` is kept in factored form — the Householder vectors live below the
/// diagonal of the packed factor and are applied with [`QrFactor::apply_qt`]
/// / [`QrFactor::apply_q`]; it is never formed explicitly unless
/// [`QrFactor::q_thin`] is requested.  This mirrors how the smoother uses QR:
/// factor a stacked pair of blocks, then apply the same `Qᵀ` to neighbouring
/// blocks and right-hand-side segments.
///
/// There is one factorization and one representation: reflectors are applied
/// one at a time, four right-hand-side columns per pass through the SIMD
/// tiles of [`crate::simd`] (plain scalar loops under
/// [`crate::set_reference_kernels`], the oracle the tiles are tested against).
///
/// The factorization itself never fails; rank deficiency surfaces as a zero
/// diagonal entry of `R` and is reported by the solve routines.
#[derive(Debug, Clone)]
pub struct QrFactor {
    /// Packed factor: `R` on and above the diagonal, Householder vectors
    /// (with implicit unit leading entry) below it.
    packed: Matrix,
    /// Householder coefficients, one per reflected column.
    tau: Vec<f64>,
}

impl Drop for QrFactor {
    fn drop(&mut self) {
        workspace::put_f64(std::mem::take(&mut self.tau));
    }
}

/// Column count from which [`QrFactor::new_applying`] stops applying each
/// reflector to the companions *during* the factorization and instead
/// factors first, then sweeps each companion once with
/// [`QrFactor::apply_qt`].  The two orders are bitwise identical (same
/// reflectors, same per-column application order — pinned by
/// `new_applying_is_bitwise_factor_then_apply`); the choice is purely a
/// locality trade.  Below ~n = 32 the factor's working set and the
/// companions fit in cache together, so the fused update is free (the
/// `qr/n8`..`qr/n24` rows of `fig4 --smoke` gate that it stays at least
/// on par); from n = 48 up, interleaving companion columns into the
/// factorization loop evicts the trailing-matrix working set and the
/// fused path was measured up to 10% slower — there, factor-then-apply
/// streams each companion in one cache-friendly pass.
pub const QR_FUSED_MAX_COLS: usize = 32;

/// LAPACK's safe minimum `MIN_POSITIVE / ε` (2⁻⁹⁷⁰, a power of two): its
/// reciprocal does not overflow, and a sum of squares below it has lost
/// bits to underflow.
const SAFE_MIN: f64 = f64::MIN_POSITIVE / f64::EPSILON;

/// The Householder reflector that maps the column `[alpha; tail]` onto
/// `β·e₁`, the sign of `β` chosen against cancellation: overwrites `tail`
/// with the reflector tail `v[1..]` (`v[0] = 1` implicit) and returns
/// `(β, τ)`, or `None` — nothing touched — for a zero column.
///
/// `norm2` is the caller's plain sum of squares of the column, so a column
/// in the normal range takes exactly that arithmetic.  As in LAPACK
/// `dlarfg`, a column whose sum of squares overflowed or underflowed
/// (non-finite, or below [`SAFE_MIN`]) has its norm recomputed from the
/// entries scaled by the largest one, and a column whose norm is itself
/// below [`SAFE_MIN`] is scaled up by `1 / SAFE_MIN` — exactly — before `τ`
/// and `v` are formed.
#[inline(always)]
pub(crate) fn householder(alpha: f64, norm2: f64, tail: &mut [f64]) -> Option<(f64, f64)> {
    if in_range(norm2) {
        return Some(reflect(alpha, norm2.sqrt(), tail));
    }
    householder_scaled(alpha, tail)
}

/// `true` when a column's plain sum of squares `norm2` neither overflowed
/// nor lost bits to underflow: [`householder`]'s fast path.
#[inline(always)]
pub(crate) fn in_range(norm2: f64) -> bool {
    norm2.is_finite() && norm2 >= SAFE_MIN
}

/// `(β, τ)` from the column's leading entry and its norm; scales `tail`
/// into the reflector tail.
#[inline(always)]
pub(crate) fn reflect(alpha: f64, norm: f64, tail: &mut [f64]) -> (f64, f64) {
    let beta = if alpha >= 0.0 { -norm } else { norm };
    let tau = (beta - alpha) / beta;
    let scale = 1.0 / (alpha - beta);
    for v in tail {
        *v *= scale;
    }
    (beta, tau)
}

/// [`householder`] for a column outside the normal range.
#[cold]
#[inline(never)]
pub(crate) fn householder_scaled(alpha: f64, tail: &mut [f64]) -> Option<(f64, f64)> {
    let big = tail.iter().fold(alpha.abs(), |m, v| m.max(v.abs()));
    if big == 0.0 {
        return None;
    }
    let ratios: f64 = std::iter::once(&alpha)
        .chain(tail.iter())
        .map(|v| (v / big) * (v / big))
        .sum();
    let norm = big * ratios.sqrt();
    if norm >= SAFE_MIN {
        return Some(reflect(alpha, norm, tail));
    }
    // Scaling by a power of two is exact, and leaves the ratios as they are.
    let up = 1.0 / SAFE_MIN;
    for v in tail.iter_mut() {
        *v *= up;
    }
    let (beta, tau) = reflect(alpha * up, big * up * ratios.sqrt(), tail);
    Some((beta * SAFE_MIN, tau))
}

/// Computes the Householder reflector for `x` in place.
///
/// On return `x[0]` holds `beta` (the new leading entry, `Hx = beta·e₁`) and
/// `x[1..]` holds the reflector tail `v[1..]` (with `v[0] = 1` implicit).
/// Returns the scalar `tau`; `tau == 0` means "no reflection needed".
fn make_householder(x: &mut [f64]) -> f64 {
    let norm2: f64 = x.iter().map(|v| v * v).sum();
    let Some((alpha, tail)) = x.split_first_mut() else {
        return 0.0;
    };
    let Some((beta, tau)) = householder(*alpha, norm2, tail) else {
        return 0.0;
    };
    *alpha = beta;
    tau
}

/// Applies `H = I - tau·v·vᵀ` (with `v[0] = 1` implicit, tail `vtail`) to the
/// vector segment `c` of the same length as `v`.
#[inline]
fn apply_householder(vtail: &[f64], tau: f64, c: &mut [f64]) {
    if tau == 0.0 {
        return;
    }
    // w = tau * (vᵀ c)
    let mut w = c[0];
    for (vi, ci) in vtail.iter().zip(&c[1..]) {
        w += vi * ci;
    }
    w *= tau;
    c[0] -= w;
    for (vi, ci) in vtail.iter().zip(&mut c[1..]) {
        *ci -= w * vi;
    }
}

/// Applies one reflector to a contiguous column-major block of columns
/// (`b.len()` is a multiple of `brows`), touching rows `row0..brows` of
/// each, four columns per pass: the reflector tail is loaded once per quad
/// and the four accumulators are independent, so the dot products vectorize
/// across columns instead of forming one serial chain each.
fn apply_reflector_raw(vtail: &[f64], tau: f64, b: &mut [f64], brows: usize, row0: usize) {
    if tau == 0.0 || b.is_empty() {
        return;
    }
    debug_assert_eq!(b.len() % brows, 0);
    debug_assert_eq!(vtail.len(), brows - row0 - 1);
    let tail = vtail.len();
    // One SIMD-layer check per reflector application, not per quad.
    let use_simd = simd::simd_active();
    let mut quads = b.chunks_exact_mut(4 * brows);
    for quad in quads.by_ref() {
        let (c0, rest) = quad.split_at_mut(brows);
        let (c1, rest) = rest.split_at_mut(brows);
        let (c2, c3) = rest.split_at_mut(brows);
        let c0 = &mut c0[row0..];
        let c1 = &mut c1[row0..];
        let c2 = &mut c2[row0..];
        let c3 = &mut c3[row0..];
        if use_simd {
            // Explicit-width tile: pivots travel in `w`, the tails are the
            // four column slices past the pivot row.
            let mut w = [c0[0], c1[0], c2[0], c3[0]];
            let (p0, t0) = c0.split_at_mut(1);
            let (p1, t1) = c1.split_at_mut(1);
            let (p2, t2) = c2.split_at_mut(1);
            let (p3, t3) = c3.split_at_mut(1);
            simd::reflector_quad(vtail, tau, &mut w, [t0, t1, t2, t3]);
            p0[0] -= w[0];
            p1[0] -= w[1];
            p2[0] -= w[2];
            p3[0] -= w[3];
            continue;
        }
        let (mut w0, mut w1, mut w2, mut w3) = (c0[0], c1[0], c2[0], c3[0]);
        {
            let t0 = &c0[1..1 + tail];
            let t1 = &c1[1..1 + tail];
            let t2 = &c2[1..1 + tail];
            let t3 = &c3[1..1 + tail];
            for i in 0..tail {
                let vi = vtail[i];
                w0 += vi * t0[i];
                w1 += vi * t1[i];
                w2 += vi * t2[i];
                w3 += vi * t3[i];
            }
        }
        w0 *= tau;
        w1 *= tau;
        w2 *= tau;
        w3 *= tau;
        c0[0] -= w0;
        c1[0] -= w1;
        c2[0] -= w2;
        c3[0] -= w3;
        let t0 = &mut c0[1..1 + tail];
        let t1 = &mut c1[1..1 + tail];
        let t2 = &mut c2[1..1 + tail];
        let t3 = &mut c3[1..1 + tail];
        for i in 0..tail {
            let vi = vtail[i];
            t0[i] -= w0 * vi;
            t1[i] -= w1 * vi;
            t2[i] -= w2 * vi;
            t3[i] -= w3 * vi;
        }
    }
    for col in quads.into_remainder().chunks_exact_mut(brows) {
        let c = &mut col[row0..];
        if use_simd {
            let (piv, t) = c.split_at_mut(1);
            let mut w = piv[0];
            simd::reflector_one(vtail, tau, &mut w, t);
            piv[0] -= w;
        } else {
            apply_householder(vtail, tau, c);
        }
    }
}

/// Applies one reflector to every column of `b` starting at `row0` (one
/// pass over the packed factor per reflector, not per column).
fn apply_householder_panel(vtail: &[f64], tau: f64, b: &mut Matrix, row0: usize) {
    let brows = b.rows();
    apply_reflector_raw(vtail, tau, b.as_mut_slice(), brows, row0);
}

/// The effective-rank tolerance `max|R_jj| · max(rows, n) · ε` of a
/// triangular factor `r` (`n` columns; only its diagonal is read) obtained
/// from a block of `rows` rows: a diagonal entry at or below it is
/// negligible relative to the largest one (the test LAPACK's `xTRTRS`
/// callers apply to least-squares problems).  Every rank decision in the
/// workspace — [`QrFactor::solve_r_in_place`], [`ColPivQr::rank`], the
/// forward step of the streaming sweep — uses this one tolerance.
pub fn effective_rank_tol(r: &Matrix, rows: usize) -> f64 {
    let steps = r.rows().min(r.cols());
    let max_diag = (0..steps).fold(0.0_f64, |m, j| m.max(r[(j, j)].abs()));
    rank_tol(max_diag, rows, r.cols())
}

/// [`effective_rank_tol`] from the largest diagonal magnitude of an
/// `n`-column factor of a `rows`-row block.
#[inline(always)]
pub(crate) fn rank_tol(max_diag: f64, rows: usize, n: usize) -> f64 {
    max_diag * (rows.max(n) as f64) * f64::EPSILON
}

/// One Householder elimination step shared by [`QrFactor`] and
/// [`ColPivQr`]: reflects column `j` below the diagonal (packing the
/// reflector tail in place) and applies the reflector to the trailing
/// columns.  Returns `tau`.
fn eliminate_column(a: &mut Matrix, j: usize) -> f64 {
    let rows = a.rows();
    let tau = {
        let col = &mut a.col_mut(j)[j..];
        make_householder(col)
    };
    if tau != 0.0 && a.cols() > j + 1 {
        let (left, trailing) = a.split_at_col_mut(j + 1);
        let vtail = &left[j * rows + j + 1..(j + 1) * rows];
        apply_reflector_raw(vtail, tau, trailing, rows, j);
    }
    tau
}

impl QrFactor {
    /// Factorizes `a` (consumed; `m × n` with `m >= n`).
    ///
    /// # Panics
    ///
    /// Panics if `a.rows() < a.cols()`.
    pub fn new(a: Matrix) -> Self {
        Self::new_applying(a, &mut [])
    }

    /// Factorizes `a` and applies `Qᵀ` to each companion block as part of
    /// the same call.  The result is bitwise identical to `QrFactor::new`
    /// followed by `apply_qt` on each companion; whether the companions are
    /// updated reflector by reflector during the factorization or swept
    /// afterwards is a locality choice made by size (see
    /// `QR_FUSED_MAX_COLS`).
    ///
    /// This is the primitive of the odd-even elimination: factor a stacked
    /// block column, carry the transformation onto the neighbouring block
    /// columns and right-hand sides.
    ///
    /// # Panics
    ///
    /// Panics if `a.rows() < a.cols()` or any companion's row count differs
    /// from `a.rows()`.
    pub fn new_applying(mut a: Matrix, companions: &mut [&mut Matrix]) -> Self {
        let (m, n) = (a.rows(), a.cols());
        assert!(m >= n, "QrFactor requires rows >= cols, got {m}x{n}");
        for c in companions.iter() {
            assert_eq!(c.rows(), m, "companion row mismatch");
        }
        // Fuse the companion updates into the factorization for small
        // factors, factor-then-apply from `QR_FUSED_MAX_COLS` up.  The
        // reference oracle keeps the original fused order.
        let fused =
            companions.is_empty() || n < QR_FUSED_MAX_COLS || workspace::reference_kernels();
        let mut tau = workspace::take_f64(n);
        for (j, tj) in tau.iter_mut().enumerate() {
            *tj = eliminate_column(&mut a, j);
            if fused && *tj != 0.0 {
                let vtail = &a.col(j)[j + 1..];
                for comp in companions.iter_mut() {
                    apply_householder_panel(vtail, *tj, comp, j);
                }
            }
        }
        let factor = QrFactor { packed: a, tau };
        if !fused {
            for comp in companions.iter_mut() {
                factor.apply_qt(comp);
            }
        }
        factor
    }

    /// Number of rows of the factored matrix.
    pub fn rows(&self) -> usize {
        self.packed.rows()
    }

    /// Number of columns of the factored matrix.
    pub fn cols(&self) -> usize {
        self.packed.cols()
    }

    /// The square upper-triangular factor `R` (`n × n`).
    pub fn r(&self) -> Matrix {
        let n = self.cols();
        let mut r = Matrix::zeros(n, n);
        for j in 0..n {
            for i in 0..=j {
                r[(i, j)] = self.packed[(i, j)];
            }
        }
        r
    }

    /// Applies `Qᵀ` to `b` in place (`b` must have the same row count as the
    /// factored matrix), sweeping each reflector over the full
    /// right-hand-side panel.
    ///
    /// After this call, the top `n` rows of `b` are the "kept" part and the
    /// remaining rows the "residual" part of the transformed block.
    ///
    /// # Panics
    ///
    /// Panics if `b.rows() != self.rows()`.
    pub fn apply_qt(&self, b: &mut Matrix) {
        assert_eq!(b.rows(), self.rows(), "apply_qt row mismatch");
        for j in 0..self.cols() {
            if self.tau[j] == 0.0 {
                continue;
            }
            let vtail = &self.packed.col(j)[j + 1..];
            apply_householder_panel(vtail, self.tau[j], b, j);
        }
    }

    /// Applies `Q` to `b` in place (reflections in reverse order).
    ///
    /// # Panics
    ///
    /// Panics if `b.rows() != self.rows()`.
    pub fn apply_q(&self, b: &mut Matrix) {
        assert_eq!(b.rows(), self.rows(), "apply_q row mismatch");
        for j in (0..self.cols()).rev() {
            if self.tau[j] == 0.0 {
                continue;
            }
            let vtail = &self.packed.col(j)[j + 1..];
            // Householder reflections are symmetric: H = Hᵀ.
            apply_householder_panel(vtail, self.tau[j], b, j);
        }
    }

    /// The thin orthonormal factor `Q₁` (`m × n`, `A = Q₁ R`).
    pub fn q_thin(&self) -> Matrix {
        let (m, n) = (self.rows(), self.cols());
        let mut q = Matrix::zeros(m, n);
        for j in 0..n {
            q[(j, j)] = 1.0;
        }
        self.apply_q(&mut q);
        q
    }

    /// Solves the least-squares problem `min ‖A x − b‖₂` for each column of
    /// `b`, returning the `n × p` solution.
    ///
    /// # Errors
    ///
    /// Returns [`DenseError::RankDeficient`] if `R` has a zero diagonal entry.
    ///
    /// # Panics
    ///
    /// Panics if `b.rows() != self.rows()`.
    pub fn solve_ls(&self, b: &Matrix) -> Result<Matrix> {
        let mut qtb = b.clone();
        self.apply_qt(&mut qtb);
        let n = self.cols();
        let mut x = qtb.sub_matrix(0, 0, n, b.cols());
        self.solve_r_in_place(&mut x)?;
        Ok(x)
    }

    /// Solves `R x = y` in place on `y` using the packed `R` factor.
    ///
    /// # Errors
    ///
    /// Returns [`DenseError::RankDeficient`] if a diagonal entry of `R` is
    /// negligible relative to the largest one (an effective rank test, like
    /// LAPACK's `xTRTRS` callers use for least-squares problems).
    pub fn solve_r_in_place(&self, y: &mut Matrix) -> Result<()> {
        let n = self.cols();
        assert_eq!(y.rows(), n, "solve_r row mismatch");
        let tol = effective_rank_tol(&self.packed, self.rows());
        for j in 0..n {
            if self.packed[(j, j)].abs() <= tol {
                return Err(DenseError::RankDeficient { column: j });
            }
        }
        for k in 0..y.cols() {
            let yk = y.col_mut(k);
            for i in (0..n).rev() {
                let mut acc = yk[i];
                for (j, &yj) in yk.iter().enumerate().take(n).skip(i + 1) {
                    acc -= self.packed[(i, j)] * yj;
                }
                yk[i] = acc / self.packed[(i, i)];
            }
        }
        Ok(())
    }
}

/// Householder QR with greedy column pivoting, `A P = Q R` — a
/// rank-revealing factorization accepting any shape (wide, tall, or empty).
///
/// At every step the column with the largest remaining norm is swapped into
/// pivot position, so the diagonal of `R` is non-increasing in magnitude
/// and the numerical rank is the number of diagonal entries above a
/// tolerance ([`ColPivQr::rank`]).  The leading `rank × rank` block of `R`
/// is nonsingular, which is what exact marginalization of a possibly
/// rank-deficient block column relies on (see `InfoHead::advance` in
/// `kalman-model`): after [`ColPivQr::apply_qt`], the top `rank` rows of a
/// companion block are exactly satisfiable by the eliminated variables and
/// the rows below are untouched by them.
///
/// Column norms are recomputed at each step rather than downdated; the
/// workspace only pivots state-dimension-sized blocks, where the `O(mn·r)`
/// recomputation is noise and immune to downdating cancellation.
#[derive(Debug, Clone)]
pub struct ColPivQr {
    /// Packed factor of the pivoted matrix: `R` on and above the diagonal,
    /// Householder tails below it.
    packed: Matrix,
    /// Householder coefficients, one per eliminated column.
    tau: Vec<f64>,
    /// `perm[j]` = original index of the column now in position `j`.
    perm: Vec<usize>,
}

impl Drop for ColPivQr {
    fn drop(&mut self) {
        workspace::put_f64(std::mem::take(&mut self.tau));
        workspace::put_usize(std::mem::take(&mut self.perm));
    }
}

impl ColPivQr {
    /// Factorizes `a` (consumed; any shape).
    pub fn new(mut a: Matrix) -> Self {
        let (m, n) = (a.rows(), a.cols());
        let steps = m.min(n);
        let mut perm = workspace::take_usize(n);
        for (j, p) in perm.iter_mut().enumerate() {
            *p = j;
        }
        let mut tau = workspace::take_f64(steps);
        #[allow(clippy::needless_range_loop)]
        for j in 0..steps {
            // Pivot: bring the column with the largest residual norm to j.
            let mut best = j;
            let mut best_norm = 0.0f64;
            for k in j..n {
                let norm: f64 = a.col(k)[j..].iter().map(|v| v * v).sum();
                if norm > best_norm {
                    best_norm = norm;
                    best = k;
                }
            }
            if best != j {
                let (cj, cb) = a.two_cols_mut(j, best);
                cj.swap_with_slice(cb);
                perm.swap(j, best);
            }
            tau[j] = eliminate_column(&mut a, j);
        }
        ColPivQr {
            packed: a,
            tau,
            perm,
        }
    }

    /// Number of rows of the factored matrix.
    pub fn rows(&self) -> usize {
        self.packed.rows()
    }

    /// Number of columns of the factored matrix.
    pub fn cols(&self) -> usize {
        self.packed.cols()
    }

    /// The column permutation: position `j` of the factor holds original
    /// column `perm()[j]`.
    pub fn perm(&self) -> &[usize] {
        &self.perm
    }

    /// The (trapezoidal) factor `R`, `min(m, n) × n`, of the *pivoted*
    /// matrix.
    pub fn r(&self) -> Matrix {
        let steps = self.tau.len();
        let mut r = Matrix::zeros(steps, self.cols());
        for j in 0..self.cols() {
            for i in 0..steps.min(j + 1) {
                r[(i, j)] = self.packed[(i, j)];
            }
        }
        r
    }

    /// Numerical rank: the number of leading diagonal entries of `R` above
    /// [`effective_rank_tol`] (the pivoting makes the diagonal magnitudes
    /// non-increasing, so this is a prefix count).
    pub fn rank(&self) -> usize {
        let steps = self.tau.len();
        let tol = effective_rank_tol(&self.packed, self.rows());
        (0..steps)
            .take_while(|&j| self.packed[(j, j)].abs() > tol)
            .count()
    }

    /// Applies `Qᵀ` to `b` in place (`b` must have the same row count as
    /// the factored matrix).
    ///
    /// # Panics
    ///
    /// Panics if `b.rows() != self.rows()`.
    pub fn apply_qt(&self, b: &mut Matrix) {
        assert_eq!(b.rows(), self.rows(), "apply_qt row mismatch");
        for j in 0..self.tau.len() {
            if self.tau[j] == 0.0 {
                continue;
            }
            let vtail = &self.packed.col(j)[j + 1..];
            apply_householder_panel(vtail, self.tau[j], b, j);
        }
    }
}

/// QR-eliminates the structured stack `[R; D]` — `R` upper triangular
/// (`n × n`), `D` dense (`l × n`) — **in place**: on return `R` holds the
/// new triangular factor and `D` is consumed as reflector storage.  The
/// same orthogonal transformation is applied to each companion, given as a
/// `(top, bottom)` pair of blocks with `n` and `l` rows (a companion whose
/// top block starts at zero receives the fill there; the bottom blocks
/// carry the residual rows).
///
/// This is LAPACK's triangular-pentagonal shape (`tpqrt`): because rows
/// `j+1..n` of stacked column `j` are structurally zero and stay zero, each
/// reflector has length `1 + l` instead of `n + l − j`, cutting the flops
/// of the odd-even elimination's second step by ~40% at `l = n` and
/// skipping the stack/extract copies entirely.  `Qᵀ` is applied during the
/// factorization, so no reflector bookkeeping survives the call.
///
/// Two bodies, chosen from the blocks' shapes alone: reflector by reflector
/// (four target columns per pass) for small stacks, and a compact-WY body
/// that applies a panel of reflectors at a time as register-tile GEMMs
/// (`tri_stack_blocked`) once `R` and the companions are wide enough
/// (`TRI_BLOCKED_MIN_N`, `TRI_BLOCKED_MIN_COLS`).  The panel is 8 pivots
/// deep, or 16 on the zmm rung for wide shapes ([`tri_stack_panel_depth`]).
/// The bodies and depths agree to rounding, not bitwise; each is a pure
/// function of its operands and the CPU verdict.
///
/// # Panics
///
/// Panics on block dimension mismatches.
pub fn qr_tri_stack_applying(
    r: &mut Matrix,
    d: &mut Matrix,
    companions: &mut [(&mut Matrix, &mut Matrix)],
) {
    tri_stack_check(r, d, companions);
    if !simd::simd_active() {
        simd::note_scalar();
        tri_stack_body::<0>(r, d, companions);
        return;
    }
    simd::note_simd();
    let width: usize = companions.iter().map(|(top, _)| top.cols()).sum();
    match tri_stack_panel_depth(r.rows(), d.rows(), width) {
        Some(depth) => tri_stack_blocked(r, d, companions, depth),
        None => tri_stack_body::<0>(r, d, companions),
    }
}

/// The compact-WY panel depth [`qr_tri_stack_applying`] runs for an
/// order-`n` stack over `l` rows of `D` whose companions total `width`
/// columns, or `None` where it runs the unblocked body (small shapes, and
/// everything under the reference kernels).  The depth is one tile height
/// of the active rung — 16 on zmm, where an 8-row `W = Yᵀ·C_D` would
/// half-fill the tile — for shapes past the `TRI_DEEP_*` thresholds, and 8
/// otherwise: the ymm tile is 8 rows tall, so depth buys it nothing.
/// Benchmarks record it beside their readings.
pub fn tri_stack_panel_depth(n: usize, l: usize, width: usize) -> Option<usize> {
    let blocked = n >= TRI_BLOCKED_MIN_N && n + width >= TRI_BLOCKED_MIN_COLS && l > 0;
    if !(blocked && simd::simd_active()) {
        return None;
    }
    let rows = simd::tile_rows();
    let wide = width >= TRI_DEEP_MIN_WIDTH && n + width >= TRI_DEEP_MIN_COLS;
    Some(if rows > TRI_PANEL && wide && l >= TRI_DEEP_MIN_ROWS {
        rows.min(TRI_MAX_DEPTH)
    } else {
        TRI_PANEL
    })
}

/// Reflectors per compact-WY sub-panel of [`tri_stack_blocked`]: one ymm
/// tile height of [`simd::gemm_tile`], and the whole panel off the zmm rung.
/// On zmm a 16-deep panel pays (see [`TRI_DEEP_MIN_ROWS`]), built from two
/// of these: against a single-level 16-pivot panel, whose pivots update all
/// 16 columns one reflector at a time, the two-level one read 0–8 % faster
/// in 11 of 12 readings (four sweeps of n = 48 with companions 49 and 97
/// columns and n = 96 with 97, `D` n rows).
const TRI_PANEL: usize = 8;
/// The deepest panel [`tri_stack_blocked`] builds: one zmm tile height.
const TRI_MAX_DEPTH: usize = 2 * TRI_PANEL;
/// [`tri_stack_panel_depth`] deepens the panel when the companions total at
/// least this many columns …
const TRI_DEEP_MIN_WIDTH: usize = 16;
/// … the columns a panel is applied to — the triangle's own plus every
/// companion's — number at least this many …
const TRI_DEEP_MIN_COLS: usize = 64;
/// … and `D` has at least this many rows.  Below any of the three the
/// panel's products are too small to repay the sub-panel step (sweep on a
/// Sapphire Rapids core, min of 31–41 interleaved rounds, 8-deep time over
/// 16-deep: n = 48, `D` 48 rows, companions 48 + 48 + 1 1.26×, 49 1.16×, 16
/// 1.05×; n = 24, 24 rows, 25 columns 0.98×; n = 32, 32 rows, 16 columns
/// 0.95×; n = 48, 8 rows, 49 columns 0.94×; n = 56, 16 rows, 16 columns
/// 0.93×).
const TRI_DEEP_MIN_ROWS: usize = 32;
/// [`qr_tri_stack_applying`] runs the compact-WY body from this order up …
const TRI_BLOCKED_MIN_N: usize = 24;
/// … when the columns a panel is applied to — the triangle's own plus every
/// companion's — number at least this many at the first panel.  Read off
/// the `fig4 --smoke` sweep: with only a right-hand side riding along the
/// blocked body wins from n = 40 and ties at 32; with 16 companion columns
/// it wins from n = 24.  The `D` row count does not enter: at n = 48 the
/// blocked body won from 2 rows to 96.
const TRI_BLOCKED_MIN_COLS: usize = 40;

/// The compact-WY tri-stack elimination, `depth` pivots per panel (a
/// multiple of [`TRI_PANEL`], at most [`TRI_MAX_DEPTH`]).  A panel's
/// reflectors `H_j = I − τ_j v_j v_jᵀ`, `v_j = [e_j; d_j]`, are applied to
/// everything right of the panel and to every companion at once as
/// `Qᵀ = I − V Tᵀ Vᵀ`:
///
/// ```text
/// W = Tᵀ·C_p + (V_D·T)ᵀ·C_D,   C_p −= W,   C_D −= V_D·W
/// ```
///
/// where `V_D` is the panel's columns of `D`, `C_p` the panel's rows of the
/// top block and `C_D` the bottom block — three tile GEMMs and one
/// subtraction per target, `Tᵀ` folded into the packed `(V_D·T)ᵀ` so no
/// triangular multiply remains.  `T` comes from `V_DᵀV_D` (the unit parts of
/// distinct `v_j` are orthogonal); a zero column (`τ = 0`) leaves a zero
/// column and row of `T`.
///
/// Inside a panel, [`TRI_PANEL`]-pivot sub-panels are eliminated by
/// [`tri_stack_pivot`] within the sub-panel only; before each one, the
/// panel's reflectors so far reach its columns by the same three GEMMs, and
/// `T` grows column by column over the whole panel.  An 8-deep panel is one
/// sub-panel and sums its reflector norms serially, as the unblocked body
/// does; deeper ones take them through [`simd::dot`].
fn tri_stack_blocked(
    r: &mut Matrix,
    d: &mut Matrix,
    companions: &mut [(&mut Matrix, &mut Matrix)],
    depth: usize,
) {
    assert!(
        depth.is_multiple_of(TRI_PANEL) && (TRI_PANEL..=TRI_MAX_DEPTH).contains(&depth),
        "tri_stack_blocked: panel depth {depth}"
    );
    let (n, l) = (r.rows(), d.rows());
    let widest = companions
        .iter()
        .map(|(top, _)| top.cols())
        .fold(n, usize::max);
    let dot_norms = depth > TRI_PANEL;
    // Tᵀ (lower triangular; the zero upper half is never written), the
    // packed Yᵀ = (V_D·T)ᵀ, and W — all column-major, `depth` rows.
    let mut tt = workspace::take_f64(depth * depth);
    let mut yt = workspace::take_f64(depth * l);
    let mut w = workspace::take_f64(depth * widest);
    let mut z = [0.0f64; TRI_MAX_DEPTH];

    for j0 in (0..n).step_by(depth) {
        let j1 = (j0 + depth).min(n);
        yt.fill(0.0);
        for s0 in (j0..j1).step_by(TRI_PANEL) {
            let s1 = (s0 + TRI_PANEL).min(j1);
            if s0 > j0 {
                let (vd, d_sub) = d.split_at_col_mut(s0);
                let wy = Wy::new(&tt, &yt, &vd[j0 * l..], s0 - j0, depth, l);
                let top = &mut r.as_mut_slice()[j0 + s0 * n..];
                wy.apply(top, n, &mut d_sub[..(s1 - s0) * l], s1 - s0, &mut w);
            }
            for j in s0..s1 {
                let tau = tri_stack_pivot::<0>(r, d, &mut [], j, s1, true, dot_norms);
                // Column i of T: T[i,i] = τ_i, T[..i,i] = −τ_i·T[..i,..i]·z
                // with z = V_D[:,..i]ᵀ d_i.  Column q of `tt` is row q of T.
                let i = j - j0;
                for (q, zq) in z[..i].iter_mut().enumerate() {
                    *zq = simd::dot(d.col(j0 + q), d.col(j));
                }
                for q in 0..i {
                    let row = &tt[q * depth..][q..i];
                    let acc: f64 = row.iter().zip(&z[q..i]).map(|(t, zs)| t * zs).sum();
                    tt[q * depth + i] = -tau * acc;
                }
                tt[i * depth + i] = tau;
            }
            // Rows s0..s1 of Yᵀ: `Tᵀ` is lower triangular, so they need the
            // panel's reflectors up to s1 only.
            let (i0, i1) = (s0 - j0, s1 - j0);
            let vd = &d.as_slice()[j0 * l..];
            simd::gemm_tile(
                i1 - i0,
                l,
                i1,
                1.0,
                &tt[i0..],
                depth,
                vd,
                l,
                1,
                &mut yt[i0..],
                depth,
            );
        }

        let (vd, d_right) = d.split_at_col_mut(j1);
        let wy = Wy::new(&tt, &yt, &vd[j0 * l..], j1 - j0, depth, l);
        if j1 < n {
            let top = &mut r.as_mut_slice()[j0 + j1 * n..];
            wy.apply(top, n, d_right, n - j1, &mut w);
        }
        for (top, bottom) in companions.iter_mut() {
            let cols = top.cols();
            if cols > 0 {
                let top = &mut top.as_mut_slice()[j0..];
                wy.apply(top, n, bottom.as_mut_slice(), cols, &mut w);
            }
        }
    }
    workspace::put_f64(w);
    workspace::put_f64(yt);
    workspace::put_f64(tt);
}

/// The compact-WY form `Qᵀ = I − V Tᵀ Vᵀ` of a panel's first `rows`
/// reflectors: `Tᵀ` and `Yᵀ = (V_D·T)ᵀ` column-major with leading dimension
/// `ld`, and the reflector tails `V_D` (`l` rows each).
struct Wy<'a> {
    tt: &'a [f64],
    yt: &'a [f64],
    vd: &'a [f64],
    rows: usize,
    ld: usize,
    l: usize,
}

impl<'a> Wy<'a> {
    fn new(tt: &'a [f64], yt: &'a [f64], vd: &'a [f64], rows: usize, ld: usize, l: usize) -> Self {
        Wy {
            tt,
            yt,
            vd,
            rows,
            ld,
            l,
        }
    }

    /// Applies `Qᵀ` to one target of `cols` columns: `top` starts at the
    /// panel's first row of a block with leading dimension `ldt`, `bottom`
    /// is `l × cols`, and `w` holds `W`.
    fn apply(&self, top: &mut [f64], ldt: usize, bottom: &mut [f64], cols: usize, w: &mut [f64]) {
        let (nb, ld, l) = (self.rows, self.ld, self.l);
        let w = &mut w[..ld * cols];
        w.fill(0.0);
        simd::gemm_tile(nb, cols, nb, 1.0, self.tt, ld, top, 1, ldt, w, ld);
        simd::gemm_tile(nb, cols, l, 1.0, self.yt, ld, bottom, 1, l, w, ld);
        for (tc, wc) in top.chunks_mut(ldt).zip(w.chunks_exact(ld)) {
            for (t, wv) in tc[..nb].iter_mut().zip(wc) {
                *t -= wv;
            }
        }
        simd::gemm_tile(l, cols, nb, -1.0, self.vd, l, w, 1, ld, bottom, l);
    }
}

/// [`qr_tri_stack_applying`] with plan-time kernel selection: when `kind`
/// names a monomorphized dimension matching the actual blocks
/// (`n = l = 8 or 16` — square evolution stacks of a uniform batch plan),
/// the elimination runs the const-generic body, whose fixed trip counts the
/// compiler unrolls and bounds-check-eliminates.  Anything else (including
/// `KernelKind::Auto`, mismatched shapes, reference mode, and `n = 4`,
/// where the specialized body never measured faster than the dynamic one)
/// falls through to the runtime-dispatched path — the call is always
/// correct, the kind is only a specialization hint bound once at plan time.
/// The two bodies run the identical arithmetic sequence, so which one ran
/// never shows in the result.
pub fn qr_tri_stack_applying_with(
    kind: KernelKind,
    r: &mut Matrix,
    d: &mut Matrix,
    companions: &mut [(&mut Matrix, &mut Matrix)],
) {
    let n = r.rows();
    let body = match n {
        8 => tri_stack_body::<8>,
        16 => tri_stack_body::<16>,
        _ => return qr_tri_stack_applying(r, d, companions),
    };
    if kind.active().dim() == Some(n) && d.rows() == n {
        tri_stack_check(r, d, companions);
        simd::note_mono();
        body(r, d, companions);
        return;
    }
    qr_tri_stack_applying(r, d, companions);
}

/// Shared shape validation for the tri-stack entry points.
fn tri_stack_check(r: &Matrix, d: &Matrix, companions: &[(&mut Matrix, &mut Matrix)]) {
    let n = r.rows();
    assert_eq!(r.cols(), n, "qr_tri_stack: R must be square");
    assert_eq!(d.cols(), n, "qr_tri_stack: D column mismatch");
    let l = d.rows();
    for (top, bottom) in companions.iter() {
        assert_eq!(top.rows(), n, "qr_tri_stack: companion top row mismatch");
        assert_eq!(bottom.rows(), l, "qr_tri_stack: companion bottom rows");
        assert_eq!(
            top.cols(),
            bottom.cols(),
            "qr_tri_stack: companion column mismatch"
        );
    }
}

/// The tri-stack elimination body.  `N == 0` is the dynamic shape; `N > 0`
/// monomorphizes the pivot count, column count and `D` row count to `N`
/// (the wrappers guarantee `r` is `N×N` and `d` is `N×N` in that case), so
/// every trip count below is a compile-time constant.
///
/// The dynamic shape also accepts an upper-*trapezoidal* `r` (`m ≤ n` with
/// rows below the diagonal zero): the pivot loop runs over the `m` rows and
/// the trailing updates span all `n` columns, which is exactly phase A of
/// [`qr_trap_stack_applying`].
fn tri_stack_body<const N: usize>(
    r: &mut Matrix,
    d: &mut Matrix,
    companions: &mut [(&mut Matrix, &mut Matrix)],
) {
    let m = if N == 0 { r.rows() } else { N };
    let n = if N == 0 { r.cols() } else { N };
    // One SIMD-layer check per elimination, not per reflector.
    let use_simd = simd::simd_active();
    for j in 0..m {
        tri_stack_pivot::<N>(r, d, companions, j, n, use_simd, false);
    }
}

/// One pivot of the tri-stack elimination: builds reflector `j` from the
/// virtual column `[R[j,j]; D[:,j]]`, applies it to columns `j+1..kend` of
/// `[R; D]` and to every companion, and returns its `τ` (zero when the
/// column was already zero and nothing was touched).  `kend` is `n` for the
/// unblocked body and the sub-panel end for [`tri_stack_blocked`]; `N` as
/// in [`tri_stack_body`] (`N > 0` implies `kend == N`).  `dot_norm` sums
/// `D[:,j]`'s squares with [`simd::dot`] instead of serially.
#[inline(always)]
fn tri_stack_pivot<const N: usize>(
    r: &mut Matrix,
    d: &mut Matrix,
    companions: &mut [(&mut Matrix, &mut Matrix)],
    j: usize,
    kend: usize,
    use_simd: bool,
    dot_norm: bool,
) -> f64 {
    let kend = if N == 0 { kend } else { N };
    let l = if N == 0 { d.rows() } else { N };
    // Reflector from the virtual column [R[j,j]; D[:,j]] (length 1+l).
    let alpha = r[(j, j)];
    let dj = d.col(j);
    let squares = if dot_norm {
        simd::dot(dj, dj)
    } else {
        dj.iter().map(|v| v * v).sum::<f64>()
    };
    let norm2: f64 = alpha * alpha + squares;
    let Some((beta, tau)) = householder(alpha, norm2, d.col_mut(j)) else {
        return 0.0;
    };
    r[(j, j)] = beta;

    // Trailing columns of [R; D]: w = R[j,k] + vᵀD[:,k], quads of four
    // columns per pass (independent accumulators, shared v loads).
    if l == 0 {
        // Empty D: the reflector is the scalar flip H = −1.
        for k in (j + 1)..kend {
            let w = r[(j, k)] * tau;
            r[(j, k)] -= w;
        }
        for (top, _) in companions.iter_mut() {
            for c in 0..top.cols() {
                let w = top[(j, c)] * tau;
                top[(j, c)] -= w;
            }
        }
        return tau;
    }
    {
        let (dleft, dright) = d.split_at_col_mut(j + 1);
        let vtail = &dleft[j * l..(j + 1) * l];
        let mut quads = dright[..(kend - j - 1) * l].chunks_exact_mut(4 * l);
        let mut k = j + 1;
        for quad in quads.by_ref() {
            let (c0, rest) = quad.split_at_mut(l);
            let (c1, rest) = rest.split_at_mut(l);
            let (c2, c3) = rest.split_at_mut(l);
            if use_simd {
                let mut w = [r[(j, k)], r[(j, k + 1)], r[(j, k + 2)], r[(j, k + 3)]];
                simd::reflector_quad(vtail, tau, &mut w, [c0, c1, c2, c3]);
                r[(j, k)] -= w[0];
                r[(j, k + 1)] -= w[1];
                r[(j, k + 2)] -= w[2];
                r[(j, k + 3)] -= w[3];
                k += 4;
                continue;
            }
            let (mut w0, mut w1, mut w2, mut w3) =
                (r[(j, k)], r[(j, k + 1)], r[(j, k + 2)], r[(j, k + 3)]);
            for i in 0..l {
                let vi = vtail[i];
                w0 += vi * c0[i];
                w1 += vi * c1[i];
                w2 += vi * c2[i];
                w3 += vi * c3[i];
            }
            w0 *= tau;
            w1 *= tau;
            w2 *= tau;
            w3 *= tau;
            r[(j, k)] -= w0;
            r[(j, k + 1)] -= w1;
            r[(j, k + 2)] -= w2;
            r[(j, k + 3)] -= w3;
            for i in 0..l {
                let vi = vtail[i];
                c0[i] -= w0 * vi;
                c1[i] -= w1 * vi;
                c2[i] -= w2 * vi;
                c3[i] -= w3 * vi;
            }
            k += 4;
        }
        for ck in quads.into_remainder().chunks_exact_mut(l) {
            if use_simd {
                let mut w = r[(j, k)];
                simd::reflector_one(vtail, tau, &mut w, ck);
                r[(j, k)] -= w;
                k += 1;
                continue;
            }
            let mut w = 0.0;
            for (vi, xi) in vtail.iter().zip(ck.iter()) {
                w += vi * xi;
            }
            w = (w + r[(j, k)]) * tau;
            r[(j, k)] -= w;
            for (vi, xi) in vtail.iter().zip(ck.iter_mut()) {
                *xi -= w * vi;
            }
            k += 1;
        }
    }

    // Companions: same update on (top row j, bottom block), quaded.
    for (top, bottom) in companions.iter_mut() {
        let vtail = d.col(j);
        let bot = bottom.as_mut_slice();
        let mut quads = bot.chunks_exact_mut(4 * l);
        let mut c = 0;
        for quad in quads.by_ref() {
            let (c0, rest) = quad.split_at_mut(l);
            let (c1, rest) = rest.split_at_mut(l);
            let (c2, c3) = rest.split_at_mut(l);
            if use_simd {
                let mut w = [
                    top[(j, c)],
                    top[(j, c + 1)],
                    top[(j, c + 2)],
                    top[(j, c + 3)],
                ];
                simd::reflector_quad(vtail, tau, &mut w, [c0, c1, c2, c3]);
                top[(j, c)] -= w[0];
                top[(j, c + 1)] -= w[1];
                top[(j, c + 2)] -= w[2];
                top[(j, c + 3)] -= w[3];
                c += 4;
                continue;
            }
            let (mut w0, mut w1, mut w2, mut w3) = (
                top[(j, c)],
                top[(j, c + 1)],
                top[(j, c + 2)],
                top[(j, c + 3)],
            );
            for i in 0..l {
                let vi = vtail[i];
                w0 += vi * c0[i];
                w1 += vi * c1[i];
                w2 += vi * c2[i];
                w3 += vi * c3[i];
            }
            w0 *= tau;
            w1 *= tau;
            w2 *= tau;
            w3 *= tau;
            top[(j, c)] -= w0;
            top[(j, c + 1)] -= w1;
            top[(j, c + 2)] -= w2;
            top[(j, c + 3)] -= w3;
            for i in 0..l {
                let vi = vtail[i];
                c0[i] -= w0 * vi;
                c1[i] -= w1 * vi;
                c2[i] -= w2 * vi;
                c3[i] -= w3 * vi;
            }
            c += 4;
        }
        for bc in quads.into_remainder().chunks_exact_mut(l) {
            if use_simd {
                let mut w = top[(j, c)];
                simd::reflector_one(vtail, tau, &mut w, bc);
                top[(j, c)] -= w;
                c += 1;
                continue;
            }
            let mut w = 0.0;
            for (vi, xi) in vtail.iter().zip(bc.iter()) {
                w += vi * xi;
            }
            w = (w + top[(j, c)]) * tau;
            top[(j, c)] -= w;
            for (vi, xi) in vtail.iter().zip(bc.iter_mut()) {
                *xi -= w * vi;
            }
            c += 1;
        }
    }
    tau
}

/// Reduces a general `m × n` block to upper-trapezoidal form in place,
/// carrying the same orthogonal transformation onto each companion block
/// (all with `m` rows).
///
/// This is the structured step-1 entry for *short* observation blocks
/// (`m < n`): a full [`QrFactor::new_applying`] would insist on `m ≥ n`
/// (and pad), while the level-0 pre-triangularization only needs the
/// `min(m, n) × n` trapezoid `R̂` and `Qᵀ·rhs`.  On exit the sub-diagonal
/// of `a` is zeroed (the reflector tails are consumed, not returned), so
/// `a` holds the clean trapezoid directly.
pub fn trapezoidalize_applying(a: &mut Matrix, companions: &mut [&mut Matrix]) {
    let (m, n) = (a.rows(), a.cols());
    for comp in companions.iter() {
        assert_eq!(comp.rows(), m, "trapezoidalize: companion row mismatch");
    }
    let steps = m.min(n);
    for j in 0..steps {
        let tau = eliminate_column(a, j);
        if tau == 0.0 {
            continue;
        }
        let acol = a.col(j);
        let vtail = &acol[j + 1..];
        for comp in companions.iter_mut() {
            apply_householder_panel(vtail, tau, comp, j);
        }
    }
    for j in 0..steps {
        for v in &mut a.col_mut(j)[j + 1..] {
            *v = 0.0;
        }
    }
}

/// QR-eliminates the structured stack `[T; D]` where `T` is `m × n` upper
/// *trapezoidal* (`m ≤ n`) and `D` is a dense `l × n` block, transforming
/// companion pairs `(top: m × w, bottom: l × w)` by the same `Qᵀ`.
///
/// This is the step-1 elimination for short observation blocks: after
/// [`trapezoidalize_applying`] compresses an `m < n` observation block to a
/// trapezoid, the odd-even step 1 stacks it on the evolution block without
/// padding `T` back up to `n` rows.  Phase A mirrors
/// [`qr_tri_stack_applying`] — each of the `m` pivots pairs `T[j,j]` with
/// the full `D` column `j` (the trapezoid keeps `T`'s sub-diagonal zero, so
/// those rows never enter a reflector).  Phase B finishes columns
/// `m..min(m+l, n)` *inside* `D` with ordinary Householder steps.
///
/// On exit the triangular factor of the stack is split across the inputs:
/// rows `0..m` of `R̂` are in `T`, and row `m + i` lives in `D` row `i`
/// (columns `≥ m + i` only — entries of `D` below that staircase are spent
/// reflector tails the caller must mask when extracting).  Companion rows
/// follow the same split.
pub fn qr_trap_stack_applying(
    t: &mut Matrix,
    d: &mut Matrix,
    companions: &mut [(&mut Matrix, &mut Matrix)],
) {
    let (m, n) = (t.rows(), t.cols());
    assert!(
        m <= n,
        "qr_trap_stack: T must be upper trapezoidal (m <= n)"
    );
    assert_eq!(d.cols(), n, "qr_trap_stack: D column mismatch");
    let l = d.rows();
    for (top, bottom) in companions.iter() {
        assert_eq!(top.rows(), m, "qr_trap_stack: companion top row mismatch");
        assert_eq!(bottom.rows(), l, "qr_trap_stack: companion bottom rows");
        assert_eq!(
            top.cols(),
            bottom.cols(),
            "qr_trap_stack: companion column mismatch"
        );
    }
    if simd::simd_active() {
        simd::note_simd();
    } else {
        simd::note_scalar();
    }

    // Phase A: one tri-stack pivot per T row.
    tri_stack_body::<0>(t, d, companions);

    // Phase B: eliminate the remaining staircase inside D.  Reflector for
    // column m + jj starts at D row jj; T and the companion tops have no
    // rows at that depth, so only D and the companion bottoms update.
    for jj in 0..l.min(n.saturating_sub(m)) {
        let j = m + jj;
        let tau = {
            let col = &mut d.col_mut(j)[jj..];
            make_householder(col)
        };
        if tau == 0.0 {
            continue;
        }
        {
            let (dleft, dright) = d.split_at_col_mut(j + 1);
            let vtail = &dleft[j * l + jj + 1..(j + 1) * l];
            apply_reflector_raw(vtail, tau, dright, l, jj);
        }
        let dcol = d.col(j);
        let vtail = &dcol[jj + 1..];
        for (_, bottom) in companions.iter_mut() {
            apply_householder_panel(vtail, tau, bottom, jj);
        }
    }
}

/// Computes a (possibly rectangular) "R compression" of `a`: the
/// upper-triangular `min(m, n) × n` factor of a QR factorization of `a`,
/// used to restore the row-count invariant of the odd-even recursion.
///
/// Unlike [`QrFactor::new`], this accepts wide matrices (`m < n`); in that
/// case the result is `m × n` upper trapezoidal.  The same transformation is
/// applied to `rhs` (in place), whose top `min(m, n)` rows are kept.
pub fn compress_rows(a: &Matrix, rhs: &mut Matrix) -> Matrix {
    compress_rows_owned(a.clone(), rhs)
}

/// [`compress_rows`] taking ownership of `a` (no defensive copy — the hot
/// odd-even compression batch hands over its freshly stacked block).
pub fn compress_rows_owned(a: Matrix, rhs: &mut Matrix) -> Matrix {
    let (m, n) = (a.rows(), a.cols());
    assert_eq!(rhs.rows(), m, "compress_rows rhs row mismatch");
    if m <= n {
        // Nothing to compress: already at most n rows.
        return a;
    }
    let qr = QrFactor::new_applying(a, &mut [rhs]);
    // R is n x n upper triangular; keep those rows of the rhs.
    qr.r()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{matmul, matmul_tn};

    fn sample() -> Matrix {
        Matrix::from_rows(&[
            &[2.0, -1.0, 0.5],
            &[1.0, 3.0, -2.0],
            &[0.0, 1.0, 1.0],
            &[4.0, 0.0, 2.0],
            &[-1.0, 2.0, 0.0],
        ])
    }

    fn wide_sample(m: usize, n: usize) -> Matrix {
        crate::random::deterministic_well_conditioned(m, n)
    }

    #[test]
    fn reconstruction_a_equals_qr() {
        let a = sample();
        let qr = QrFactor::new(a.clone());
        let q = qr.q_thin();
        let r = qr.r();
        let qr_prod = matmul(&q, &r);
        assert!(qr_prod.approx_eq(&a, 1e-12), "QR != A");
    }

    #[test]
    fn q_is_orthonormal() {
        let qr = QrFactor::new(sample());
        let q = qr.q_thin();
        let qtq = matmul_tn(&q, &q);
        assert!(qtq.approx_eq(&Matrix::identity(3), 1e-12));
    }

    #[test]
    fn apply_qt_then_q_roundtrips() {
        let qr = QrFactor::new(sample());
        let b = Matrix::from_fn(5, 2, |i, j| (i + 2 * j) as f64);
        let mut t = b.clone();
        qr.apply_qt(&mut t);
        qr.apply_q(&mut t);
        assert!(t.approx_eq(&b, 1e-12));
    }

    #[test]
    fn apply_qt_matches_explicit_q() {
        let a = sample();
        let qr = QrFactor::new(a.clone());
        // Build full Q by applying Q to the 5x5 identity.
        let mut full_q = Matrix::identity(5);
        qr.apply_q(&mut full_q);
        let b = Matrix::from_fn(5, 3, |i, j| ((i * 3 + j) as f64).sin());
        let mut qt_b = b.clone();
        qr.apply_qt(&mut qt_b);
        let expect = matmul_tn(&full_q, &b);
        assert!(qt_b.approx_eq(&expect, 1e-12));
    }

    #[test]
    fn solve_ls_matches_normal_equations() {
        let a = sample();
        let b = Matrix::col_from_slice(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        let qr = QrFactor::new(a.clone());
        let x = qr.solve_ls(&b).unwrap();
        // Check normal equations: Aᵀ(Ax − b) = 0.
        let ax = matmul(&a, &x);
        let resid = &ax - &b;
        let grad = matmul_tn(&a, &resid);
        assert!(grad.max_abs() < 1e-12, "gradient {:?}", grad);
    }

    #[test]
    fn square_exact_solve() {
        let a = Matrix::from_rows(&[&[4.0, 1.0], &[2.0, 3.0]]);
        let b = Matrix::col_from_slice(&[9.0, 13.0]);
        let qr = QrFactor::new(a);
        let x = qr.solve_ls(&b).unwrap();
        assert!((x[(0, 0)] - 1.4).abs() < 1e-12);
        assert!((x[(1, 0)] - 3.4).abs() < 1e-12);
    }

    #[test]
    fn rank_deficient_reports_column() {
        // Second column is a multiple of the first.
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0]]);
        let qr = QrFactor::new(a);
        let b = Matrix::col_from_slice(&[1.0, 1.0, 1.0]);
        match qr.solve_ls(&b) {
            Err(DenseError::RankDeficient { column }) => assert_eq!(column, 1),
            other => panic!("expected rank deficiency, got {other:?}"),
        }
    }

    #[test]
    fn zero_column_gives_zero_tau_not_nan() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[0.0, 2.0], &[0.0, 3.0]]);
        let qr = QrFactor::new(a);
        let r = qr.r();
        assert_eq!(r[(0, 0)], 0.0);
        assert!(r.as_slice().iter().all(|v| v.is_finite()));
    }

    /// Scales at which a column's plain sum of squares overflows, loses
    /// bits in subnormals, underflows to zero, and leaves a norm below
    /// `SAFE_MIN`.
    const EXTREME_SCALES: [f64; 4] = [1e160, 1e-160, 1e-170, 1e-300];

    /// `got` is `s·want` to rounding, entry by entry.
    fn assert_scaled(got: &Matrix, want: &Matrix, s: f64, what: &str) {
        let tol = 1e-12 * (1.0 + want.max_abs());
        for (idx, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert!(
                (g / s - w).abs() <= tol,
                "{what} at {s:e}, entry {idx}: {g:e} vs {w:e}"
            );
        }
    }

    #[test]
    fn extreme_scales_factor_to_the_scaled_triangle() {
        let a = sample().sub_matrix(0, 0, 5, 3);
        let a = Matrix::vstack(&[&a, &Matrix::from_rows(&[&[0.5, -3.0, 1.5]])]);
        let want = QrFactor::new(a.clone()).r();
        for s in EXTREME_SCALES {
            assert_scaled(&QrFactor::new(a.scaled(s)).r(), &want, s, "QrFactor 6x3");
        }
    }

    type TriStackBody = fn(&mut Matrix, &mut Matrix, &mut [(&mut Matrix, &mut Matrix)]);

    /// The compact-WY body at each panel depth, whatever the active rung
    /// would pick.
    const WY_DEPTHS: [(&str, TriStackBody); 2] = [
        ("compact-WY 8", |r, d, c| {
            tri_stack_blocked(r, d, c, TRI_PANEL)
        }),
        ("compact-WY 16", |r, d, c| {
            tri_stack_blocked(r, d, c, TRI_MAX_DEPTH)
        }),
    ];

    /// Every tri-stack body, called directly so the reference-kernel
    /// switch cannot route around any.
    #[test]
    fn extreme_scales_tri_stack_to_the_scaled_triangle() {
        let mut bodies = vec![("unblocked", 6, tri_stack_body::<0> as TriStackBody)];
        bodies.extend(WY_DEPTHS.map(|(name, body)| (name, 48, body)));
        for (name, n, body) in bodies {
            let r0 = wide_sample(n, n).upper_triangular_part();
            let d0 = wide_sample(n + 1, n).sub_matrix(1, 0, n, n);
            let (top0, bot0) = (
                wide_sample(n, 2),
                wide_sample(n + 2, 2).sub_matrix(2, 0, n, 2),
            );
            let run = |s: f64| {
                let (mut r, mut d) = (r0.scaled(s), d0.scaled(s));
                let (mut top, mut bot) = (top0.scaled(s), bot0.scaled(s));
                body(&mut r, &mut d, &mut [(&mut top, &mut bot)]);
                [r, top, bot]
            };
            let want = run(1.0);
            for s in EXTREME_SCALES {
                for (got, (want, block)) in
                    run(s).iter().zip(want.iter().zip(["R", "top", "bottom"]))
                {
                    assert_scaled(got, want, s, &format!("{name} {block}"));
                }
            }
        }
    }

    /// Both panel depths against the unblocked body, past every edge of the
    /// blocking: orders with ragged last panels and sub-panels, `D` from one
    /// row to 96, companions from a lone right-hand side to step 2's
    /// 48 + 48 + 1.  Column 11 of the stack is zero — in the second
    /// sub-panel of a 16-deep panel, where τ = 0 leaves a zero row and
    /// column of `T` — and column 12 is scaled by 1e160, so its sum of
    /// squares overflows into the rescaling generator inside a sub-panel.
    /// Each column is compared at its own scale.
    #[test]
    fn compact_wy_depths_match_the_unblocked_body() {
        let sample = |rows: usize, cols: usize, at: usize| {
            wide_sample(rows + at, cols).sub_matrix(at, 0, rows, cols)
        };
        for n in [24usize, 25, 31, 32, 33, 40, 47, 48, 56, 96] {
            let mut r0 = sample(n, n, 0).upper_triangular_part();
            for i in 0..n {
                r0[(i, 11)] = 0.0;
                r0[(i, 12)] *= 1e160;
            }
            for l in [1usize, 3, 8, 48, 96] {
                let mut d0 = sample(l, n, n);
                for i in 0..l {
                    d0[(i, 11)] = 0.0;
                    d0[(i, 12)] *= 1e160;
                }
                for width in [1usize, 15, 16, 49, 97] {
                    let comps0: Vec<(Matrix, Matrix)> = (0..width)
                        .step_by(48)
                        .map(|c0| {
                            let cols = 48.min(width - c0);
                            (sample(n, cols, c0), sample(l, cols, n + c0))
                        })
                        .collect();
                    let run = |body: TriStackBody| {
                        let (mut r, mut d) = (r0.clone(), d0.clone());
                        let mut comps = comps0.clone();
                        let mut pairs: Vec<_> = comps.iter_mut().map(|(t, b)| (t, b)).collect();
                        body(&mut r, &mut d, &mut pairs);
                        let mut blocks = vec![r, d];
                        blocks.extend(comps.into_iter().flat_map(|(t, b)| [t, b]));
                        blocks
                    };
                    let want = run(tri_stack_body::<0>);
                    for (name, body) in WY_DEPTHS {
                        for (b, (got, want)) in run(body).iter().zip(&want).enumerate() {
                            for c in 0..want.cols() {
                                let scale = want.col(c).iter().fold(1.0_f64, |m, v| m.max(v.abs()));
                                for (i, (g, w)) in got.col(c).iter().zip(want.col(c)).enumerate() {
                                    assert!(
                                        (g - w).abs() <= 1e-12 * scale,
                                        "{name} n={n} l={l} width={width} block {b} ({i},{c}): \
                                         {g:e} vs {w:e}"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn compress_rows_tall_gives_triangular_same_gram() {
        let a = sample(); // 5x3
        let mut rhs = Matrix::from_fn(5, 1, |i, _| i as f64 + 1.0);
        let orig_rhs = rhs.clone();
        let r = compress_rows(&a, &mut rhs);
        assert_eq!(r.rows(), 3);
        assert_eq!(r.cols(), 3);
        // RᵀR == AᵀA (the compression preserves the Gram matrix).
        let gram_r = matmul_tn(&r, &r);
        let gram_a = matmul_tn(&a, &a);
        assert!(gram_r.approx_eq(&gram_a, 1e-10));
        // And the rhs norm is preserved by the orthogonal transform.
        assert!((rhs.frob_norm() - orig_rhs.frob_norm()).abs() < 1e-12);
    }

    #[test]
    fn compress_rows_wide_is_identity() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]);
        let mut rhs = Matrix::col_from_slice(&[5.0]);
        let r = compress_rows(&a, &mut rhs);
        assert!(r.approx_eq(&a, 0.0));
        assert_eq!(rhs[(0, 0)], 5.0);
    }

    /// `new_applying` must equal factor-then-apply bitwise on both sides of
    /// `QR_FUSED_MAX_COLS`.
    #[test]
    fn new_applying_is_bitwise_factor_then_apply() {
        for (m, n) in [(7, 3), (40, 20), (70, 40)] {
            let a = wide_sample(m, n);
            let b1 = Matrix::from_fn(m, 4, |i, j| (i * 5 + j) as f64 * 0.25);
            let b2 = Matrix::from_fn(m, 1, |i, _| (i as f64).sqrt());

            let qr_ref = QrFactor::new(a.clone());
            let mut c1 = b1.clone();
            let mut c2 = b2.clone();
            qr_ref.apply_qt(&mut c1);
            qr_ref.apply_qt(&mut c2);

            let mut d1 = b1.clone();
            let mut d2 = b2.clone();
            let qr_fused = QrFactor::new_applying(a.clone(), &mut [&mut d1, &mut d2]);
            assert!(qr_fused.r().approx_eq(&qr_ref.r(), 0.0), "{m}x{n} R");
            assert!(d1.approx_eq(&c1, 0.0), "{m}x{n} companion 1");
            assert!(d2.approx_eq(&c2, 0.0), "{m}x{n} companion 2");
        }
    }

    #[test]
    fn colpiv_full_rank_preserves_gram_and_reports_rank() {
        let a = sample(); // 5x3, full rank
        let qr = ColPivQr::new(a.clone());
        assert_eq!(qr.rank(), 3);
        // RᵀR equals the Gram of the *pivoted* matrix.
        let r = qr.r();
        let mut pivoted = Matrix::zeros(5, 3);
        for (j, &orig) in qr.perm().iter().enumerate() {
            for i in 0..5 {
                pivoted[(i, j)] = a[(i, orig)];
            }
        }
        assert!(matmul_tn(&r, &r).approx_eq(&matmul_tn(&pivoted, &pivoted), 1e-10));
        // Diagonal magnitudes are non-increasing (the rank-revealing
        // property the prefix count relies on).
        for j in 1..3 {
            assert!(r[(j, j)].abs() <= r[(j - 1, j - 1)].abs() + 1e-12);
        }
    }

    #[test]
    fn colpiv_detects_rank_deficiency() {
        // Rank 1: every column a multiple of the first.
        let a = Matrix::from_rows(&[&[1.0, 2.0, -1.0], &[2.0, 4.0, -2.0], &[3.0, 6.0, -3.0]]);
        assert_eq!(ColPivQr::new(a).rank(), 1);
        // The zero matrix has rank 0; a zero-row matrix factors trivially.
        assert_eq!(ColPivQr::new(Matrix::zeros(3, 2)).rank(), 0);
        assert_eq!(ColPivQr::new(Matrix::zeros(0, 4)).rank(), 0);
        // Wide matrices are accepted (unlike QrFactor).
        let wide = Matrix::from_rows(&[&[1.0, 0.0, 2.0], &[1.0, 0.0, 2.0]]);
        assert_eq!(ColPivQr::new(wide).rank(), 1);
    }

    #[test]
    fn colpiv_apply_qt_is_orthogonal() {
        // Qᵀ preserves column norms and maps the pivoted matrix onto R.
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[-1.0, 0.0], &[0.0, 0.0], &[2.0, 0.0]]);
        let qr = ColPivQr::new(a.clone());
        assert_eq!(qr.rank(), 1);
        let b = Matrix::from_fn(4, 2, |i, j| (i * 2 + j) as f64);
        let mut qtb = b.clone();
        qr.apply_qt(&mut qtb);
        for k in 0..2 {
            let n0: f64 = b.col(k).iter().map(|v| v * v).sum();
            let n1: f64 = qtb.col(k).iter().map(|v| v * v).sum();
            assert!((n0 - n1).abs() < 1e-12);
        }
        // Rows below the rank of the transformed matrix itself are zero.
        let mut ta = a.clone();
        qr.apply_qt(&mut ta);
        for i in qr.rank()..4 {
            for j in 0..2 {
                assert!(ta[(i, j)].abs() < 1e-12, "({i},{j}) = {}", ta[(i, j)]);
            }
        }
    }

    #[test]
    fn tri_stack_preserves_augmented_gram() {
        use crate::gemm::matmul_tn;
        for (n, l, w) in [(4usize, 3usize, 2usize), (8, 8, 5), (6, 0, 1), (5, 9, 4)] {
            let r0 = wide_sample(n, n).upper_triangular_part();
            let d0 = wide_sample(l.max(1), n).sub_matrix(0, 0, l, n);
            let top0 = wide_sample(n, w);
            let bot0 = wide_sample(l.max(1), w).sub_matrix(0, 0, l, w);

            let mut r = r0.clone();
            let mut d = d0.clone();
            let mut top = top0.clone();
            let mut bot = bot0.clone();
            qr_tri_stack_applying(&mut r, &mut d, &mut [(&mut top, &mut bot)]);

            // R' stays upper triangular.
            for j in 0..n {
                for i in (j + 1)..n {
                    assert_eq!(r[(i, j)], 0.0, "({i},{j}) filled at n={n} l={l}");
                }
            }
            let scale = 1.0 + r0.max_abs() + d0.max_abs();
            // R'ᵀR' == RᵀR + DᵀD (the transformed stack is [R'; 0]).
            let lhs = matmul_tn(&r, &r);
            let rhs = &matmul_tn(&r0, &r0) + &matmul_tn(&d0, &d0);
            assert!(lhs.approx_eq(&rhs, 1e-11 * scale), "stack gram n={n} l={l}");
            // R'ᵀ·top' == RᵀT + DᵀB.
            let lhs = matmul_tn(&r, &top);
            let rhs = &matmul_tn(&r0, &top0) + &matmul_tn(&d0, &bot0);
            assert!(lhs.approx_eq(&rhs, 1e-11 * scale), "cross gram n={n} l={l}");
            // top'ᵀtop' + bot'ᵀbot' == TᵀT + BᵀB (orthogonality).
            let lhs = &matmul_tn(&top, &top) + &matmul_tn(&bot, &bot);
            let rhs = &matmul_tn(&top0, &top0) + &matmul_tn(&bot0, &bot0);
            assert!(lhs.approx_eq(&rhs, 1e-11 * scale), "comp gram n={n} l={l}");
        }
    }

    #[test]
    fn mono_tri_stack_matches_dynamic_bitwise() {
        use crate::simd::KernelKind;
        for n in [4usize, 8, 16] {
            let r0 = wide_sample(n, n).upper_triangular_part();
            let d0 = wide_sample(n, n);
            let top0 = wide_sample(n, 3);
            let bot0 = wide_sample(n, 3);

            let (mut r_a, mut d_a) = (r0.clone(), d0.clone());
            let (mut top_a, mut bot_a) = (top0.clone(), bot0.clone());
            qr_tri_stack_applying(&mut r_a, &mut d_a, &mut [(&mut top_a, &mut bot_a)]);

            let (mut r_b, mut d_b) = (r0.clone(), d0.clone());
            let (mut top_b, mut bot_b) = (top0.clone(), bot0.clone());
            let kind = KernelKind::for_dim(n);
            assert_eq!(kind.dim(), Some(n));
            qr_tri_stack_applying_with(kind, &mut r_b, &mut d_b, &mut [(&mut top_b, &mut bot_b)]);

            // The monomorphized body runs the identical arithmetic sequence,
            // so the match is bitwise, whatever the SIMD layer is doing.
            assert!(r_a.approx_eq(&r_b, 0.0), "mono R n={n}");
            assert!(d_a.approx_eq(&d_b, 0.0), "mono D n={n}");
            assert!(top_a.approx_eq(&top_b, 0.0), "mono top n={n}");
            assert!(bot_a.approx_eq(&bot_b, 0.0), "mono bot n={n}");

            // A mismatched hint must fall back, not mis-specialize.
            let (mut r_c, mut d_c) = (r0.clone(), d0.clone());
            let wrong = if n == 4 {
                KernelKind::Mono8
            } else {
                KernelKind::Mono4
            };
            qr_tri_stack_applying_with(wrong, &mut r_c, &mut d_c, &mut []);
            let (mut r_d, mut d_d) = (r0.clone(), d0.clone());
            qr_tri_stack_applying(&mut r_d, &mut d_d, &mut []);
            assert!(r_c.approx_eq(&r_d, 0.0), "fallback R n={n}");
            assert!(d_c.approx_eq(&d_d, 0.0), "fallback D n={n}");
        }
    }

    #[test]
    fn trapezoidalize_preserves_gram_and_shape() {
        use crate::gemm::matmul_tn;
        for (m, n, w) in [(3usize, 5usize, 2usize), (4, 4, 3), (6, 3, 1), (1, 4, 2)] {
            let a0 = wide_sample(m, n);
            let rhs0 = wide_sample(m, w);
            let mut a = a0.clone();
            let mut rhs = rhs0.clone();
            trapezoidalize_applying(&mut a, &mut [&mut rhs]);

            for j in 0..m.min(n) {
                for i in (j + 1)..m {
                    assert_eq!(a[(i, j)], 0.0, "({i},{j}) not cleared m={m} n={n}");
                }
            }
            let scale = 1.0 + a0.max_abs() + rhs0.max_abs();
            // Orthogonal invariants: RᵀR == AᵀA, Rᵀ(Qᵀrhs) == Aᵀrhs,
            // and Qᵀ preserves companion norms.
            let lhs = matmul_tn(&a, &a);
            let rhs_g = matmul_tn(&a0, &a0);
            assert!(lhs.approx_eq(&rhs_g, 1e-11 * scale), "trap gram {m}x{n}");
            let lhs = matmul_tn(&a, &rhs);
            let rhs_g = matmul_tn(&a0, &rhs0);
            assert!(lhs.approx_eq(&rhs_g, 1e-11 * scale), "trap cross {m}x{n}");
            let lhs = matmul_tn(&rhs, &rhs);
            let rhs_g = matmul_tn(&rhs0, &rhs0);
            assert!(lhs.approx_eq(&rhs_g, 1e-11 * scale), "trap comp {m}x{n}");
        }
    }

    #[test]
    fn trap_stack_preserves_augmented_gram() {
        use crate::gemm::matmul_tn;
        for (m, l, w, n) in [
            (2usize, 4usize, 3usize, 5usize),
            (3, 2, 2, 6),
            (0, 4, 2, 3),
            (2, 0, 1, 4),
            (4, 4, 2, 4),
        ] {
            let t0 = {
                let mut t = wide_sample(m.max(1), n).sub_matrix(0, 0, m, n);
                for j in 0..m.min(n) {
                    for i in (j + 1)..m {
                        t[(i, j)] = 0.0;
                    }
                }
                t
            };
            let d0 = wide_sample(l.max(1), n).sub_matrix(0, 0, l, n);
            let top0 = wide_sample(m.max(1), w).sub_matrix(0, 0, m, w);
            let bot0 = wide_sample(l.max(1), w).sub_matrix(0, 0, l, w);

            let mut t = t0.clone();
            let mut d = d0.clone();
            let mut top = top0.clone();
            let mut bot = bot0.clone();
            qr_trap_stack_applying(&mut t, &mut d, &mut [(&mut top, &mut bot)]);

            // Assemble the k×n triangular factor: T rows, then the D
            // staircase rows (masked below their diagonal), and the matching
            // k×w companion rows.
            let steps = l.min(n.saturating_sub(m));
            let k = m + steps;
            let mut rhat = Matrix::zeros(k, n);
            let mut chat = Matrix::zeros(k, w);
            for j in 0..n {
                for i in 0..m.min(j + 1) {
                    rhat[(i, j)] = t[(i, j)];
                }
                if j >= m {
                    for i in 0..steps.min(j - m + 1) {
                        rhat[(m + i, j)] = d[(i, j)];
                    }
                }
            }
            for c in 0..w {
                for i in 0..m {
                    chat[(i, c)] = top[(i, c)];
                }
                for i in 0..steps {
                    chat[(m + i, c)] = bot[(i, c)];
                }
            }

            let scale = 1.0 + t0.max_abs() + d0.max_abs() + top0.max_abs() + bot0.max_abs();
            let lhs = matmul_tn(&rhat, &rhat);
            let rhs = &matmul_tn(&t0, &t0) + &matmul_tn(&d0, &d0);
            assert!(
                lhs.approx_eq(&rhs, 1e-11 * scale),
                "trapstack gram m={m} l={l} n={n}"
            );
            let lhs = matmul_tn(&rhat, &chat);
            let rhs = &matmul_tn(&t0, &top0) + &matmul_tn(&d0, &bot0);
            assert!(
                lhs.approx_eq(&rhs, 1e-11 * scale),
                "trapstack cross m={m} l={l} n={n}"
            );
            let lhs = &matmul_tn(&top, &top) + &matmul_tn(&bot, &bot);
            let rhs = &matmul_tn(&top0, &top0) + &matmul_tn(&bot0, &bot0);
            assert!(
                lhs.approx_eq(&rhs, 1e-11 * scale),
                "trapstack comp m={m} l={l} n={n}"
            );
        }
    }
}
