use std::fmt;
use std::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

/// A dense, column-major, `f64` matrix.
///
/// Storage is a single `Vec<f64>` of length `rows * cols`; entry `(i, j)`
/// lives at `data[i + j * rows]`.  Column-major layout matches the access
/// pattern of the Householder QR and triangular-solve kernels, which sweep
/// down columns.
///
/// Vectors are represented as `rows × 1` matrices; see
/// [`Matrix::col_from_slice`].
///
/// Storage is checked out of the thread-local [`crate::workspace`] pool and
/// returned on drop, so matrix-heavy loops stop allocating once the pool
/// has warmed up.  `Clone` goes through the same pool.  The default matrix
/// is the empty `0 × 0` one (a placeholder for `clone_from` to fill).
#[derive(PartialEq, Default)]
pub struct Matrix {
    /// Exactly `rows · cols` elements.
    data: Vec<f64>,
    rows: usize,
    cols: usize,
}

impl Clone for Matrix {
    fn clone(&self) -> Self {
        Matrix {
            data: crate::workspace::take_f64_copy(&self.data),
            rows: self.rows,
            cols: self.cols,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.data.clear();
        // lint: allow(alloc, "refills the destination's own storage, which grows only while it is smaller than the source: once per reused matrix")
        self.data.extend_from_slice(&source.data);
        self.rows = source.rows;
        self.cols = source.cols;
    }
}

impl Drop for Matrix {
    fn drop(&mut self) {
        crate::workspace::put_f64(std::mem::take(&mut self.data));
    }
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            data: crate::workspace::take_f64(rows * cols),
            rows,
            cols,
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a square diagonal matrix from the given diagonal entries.
    pub fn from_diag(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Creates a matrix by evaluating `f(i, j)` at every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for j in 0..cols {
            for i in 0..rows {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Creates a matrix from row slices (convenient for literals in tests).
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = if r == 0 { 0 } else { rows[0].len() };
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), c, "row {i} has length {} != {c}", row.len());
        }
        Matrix::from_fn(r, c, |i, j| rows[i][j])
    }

    /// Creates a column vector (an `n × 1` matrix) from a slice.
    pub fn col_from_slice(v: &[f64]) -> Self {
        Matrix {
            data: crate::workspace::take_f64_copy(v),
            rows: v.len(),
            cols: 1,
        }
    }

    /// Creates a matrix from raw column-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_col_major(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match {rows}x{cols}",
            data.len()
        );
        Matrix { data, rows, cols }
    }

    /// Makes `self` the column vector `v`, reusing its storage (the
    /// in-place [`Matrix::col_from_slice`]).
    pub fn assign_col(&mut self, v: &[f64]) {
        self.data.clear();
        // lint: allow(alloc, "refills the column's own storage, which grows only past its high-water length")
        self.data.extend_from_slice(v);
        self.rows = v.len();
        self.cols = 1;
    }

    /// Makes `self` the `n × n` identity, reusing its storage.
    pub fn assign_identity(&mut self, n: usize) {
        self.data.clear();
        // lint: allow(alloc, "refills the matrix's own storage, which grows only past its high-water length")
        self.data.resize(n * n, 0.0);
        self.rows = n;
        self.cols = n;
        for i in 0..n {
            self.data[i + i * n] = 1.0;
        }
    }

    /// Reshapes `self` to `rows × cols` for a caller that overwrites every
    /// entry, and hands out the storage: entries that were there keep
    /// whatever values they had, a longer matrix is zero-extended.  A matrix
    /// already of that length keeps its buffer untouched; one whose buffer
    /// is too small trades it for a pooled one.
    pub(crate) fn resize_for_overwrite(&mut self, rows: usize, cols: usize) -> &mut [f64] {
        let len = rows * cols;
        if self.data.capacity() < len {
            let old = std::mem::replace(&mut self.data, crate::workspace::take_f64(len));
            crate::workspace::put_f64(old);
        } else {
            // lint: allow(alloc, "within the capacity checked above: never reallocates")
            self.data.resize(len, 0.0);
        }
        self.rows = rows;
        self.cols = cols;
        &mut self.data
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `true` when the matrix has zero rows or zero columns.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0 || self.cols == 0
    }

    /// `true` when the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Immutable view of column `j` as a contiguous slice.
    #[inline]
    pub fn col(&self, j: usize) -> &[f64] {
        debug_assert!(j < self.cols);
        &self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Mutable view of column `j` as a contiguous slice.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        debug_assert!(j < self.cols);
        &mut self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Raw column-major data slice.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw column-major data slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix, returning its column-major data.
    ///
    /// The returned vector leaves the workspace pool for good (it is
    /// deallocated normally when dropped); hot paths should prefer reading
    /// through [`Matrix::col`] and letting the matrix recycle itself.
    pub fn into_vec(mut self) -> Vec<f64> {
        std::mem::take(&mut self.data)
    }

    /// Two mutable column views `(j1, j2)` with `j1 != j2`.
    ///
    /// Used by kernels that combine a pair of columns in place.
    pub fn two_cols_mut(&mut self, j1: usize, j2: usize) -> (&mut [f64], &mut [f64]) {
        assert!(j1 != j2, "columns must be distinct");
        let r = self.rows;
        if j1 < j2 {
            let (lo, hi) = self.data.split_at_mut(j2 * r);
            (&mut lo[j1 * r..(j1 + 1) * r], &mut hi[..r])
        } else {
            let (lo, hi) = self.data.split_at_mut(j1 * r);
            let c2 = &mut lo[j2 * r..(j2 + 1) * r];
            (&mut hi[..r], c2)
        }
    }

    /// Splits the column-major storage at column `j`: returns the raw data
    /// of columns `0..j` (shared) and `j..cols` (mutable).  Both slices use
    /// this matrix's row count as their column stride.  Used by the blocked
    /// QR to apply a factored panel to the trailing columns in place.
    ///
    /// # Panics
    ///
    /// Panics if `j > self.cols()`.
    pub fn split_at_col_mut(&mut self, j: usize) -> (&[f64], &mut [f64]) {
        assert!(j <= self.cols, "split_at_col_mut column out of bounds");
        let r = self.rows;
        let (lo, hi) = self.data.split_at_mut(j * r);
        (lo, hi)
    }

    /// Returns the transpose as a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for j in 0..self.cols {
            let cj = self.col(j);
            for i in 0..self.rows {
                t[(j, i)] = cj[i];
            }
        }
        t
    }

    /// Extracts the `nrows × ncols` sub-matrix whose top-left corner is `(r0, c0)`.
    ///
    /// # Panics
    ///
    /// Panics if the requested block extends beyond the matrix.
    pub fn sub_matrix(&self, r0: usize, c0: usize, nrows: usize, ncols: usize) -> Matrix {
        assert!(
            r0 + nrows <= self.rows && c0 + ncols <= self.cols,
            "sub-matrix ({r0}+{nrows}, {c0}+{ncols}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        let mut data = crate::workspace::take_f64_empty(nrows * ncols);
        for j in 0..ncols {
            // lint: allow(alloc, "appends into a pooled buffer checked out with room for every element: never reallocates")
            data.extend_from_slice(&self.col(c0 + j)[r0..r0 + nrows]);
        }
        Matrix {
            data,
            rows: nrows,
            cols: ncols,
        }
    }

    /// Copies `block` into `self` with top-left corner at `(r0, c0)`.
    ///
    /// # Panics
    ///
    /// Panics if the block extends beyond the matrix.
    pub fn set_block(&mut self, r0: usize, c0: usize, block: &Matrix) {
        assert!(
            r0 + block.rows <= self.rows && c0 + block.cols <= self.cols,
            "block ({r0}+{}, {c0}+{}) out of bounds for {}x{}",
            block.rows,
            block.cols,
            self.rows,
            self.cols
        );
        for j in 0..block.cols {
            let src = block.col(j);
            self.col_mut(c0 + j)[r0..r0 + block.rows].copy_from_slice(src);
        }
    }

    /// Stacks `blocks` vertically.  All blocks must have the same column count.
    ///
    /// # Panics
    ///
    /// Panics if the blocks have inconsistent column counts or `blocks` is empty.
    pub fn vstack(blocks: &[&Matrix]) -> Matrix {
        assert!(!blocks.is_empty(), "vstack of zero blocks");
        let cols = blocks[0].cols;
        let rows: usize = blocks.iter().map(|b| b.rows).sum();
        for b in blocks {
            assert_eq!(b.cols, cols, "vstack blocks must have equal column counts");
        }
        let mut data = crate::workspace::take_f64_empty(rows * cols);
        for j in 0..cols {
            for b in blocks {
                // lint: allow(alloc, "appends into a pooled buffer checked out with room for every element: never reallocates")
                data.extend_from_slice(b.col(j));
            }
        }
        Matrix { data, rows, cols }
    }

    /// Stacks `blocks` horizontally.  All blocks must have the same row count.
    ///
    /// # Panics
    ///
    /// Panics if the blocks have inconsistent row counts or `blocks` is empty.
    pub fn hstack(blocks: &[&Matrix]) -> Matrix {
        assert!(!blocks.is_empty(), "hstack of zero blocks");
        let rows = blocks[0].rows;
        let cols: usize = blocks.iter().map(|b| b.cols).sum();
        let mut out = Matrix::zeros(rows, cols);
        let mut c0 = 0;
        for b in blocks {
            assert_eq!(b.rows, rows, "hstack blocks must have equal row counts");
            out.set_block(0, c0, b);
            c0 += b.cols;
        }
        out
    }

    /// Sets every entry to `v`.
    pub fn fill(&mut self, v: f64) {
        self.data.fill(v);
    }

    /// Multiplies every entry by `s` in place.
    pub fn scale(&mut self, s: f64) {
        for x in &mut self.data {
            *x *= s;
        }
    }

    /// Returns `self * s` as a new matrix.
    // lint: allow(alloc, "by-value API allocates by contract; flush-path callers invoke it once per forget step, not per state")
    pub fn scaled(&self, s: f64) -> Matrix {
        let mut m = self.clone();
        m.scale(s);
        m
    }

    /// In-place `self += alpha * other`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn axpy(&mut self, alpha: f64, other: &Matrix) {
        assert_eq!(self.rows, other.rows, "axpy row mismatch");
        assert_eq!(self.cols, other.cols, "axpy col mismatch");
        for (x, y) in self.data.iter_mut().zip(other.data.iter()) {
            *x += alpha * y;
        }
    }

    /// Matrix-vector product `y = self * x` (allocating; hot paths use
    /// [`Matrix::mul_vec_into`] / [`Matrix::sub_mul_vec_into`] instead).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.rows];
        self.mul_vec_into(x, &mut y);
        y
    }

    /// In-place matrix-vector product `y = self * x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()` or `y.len() != self.rows()`.
    pub fn mul_vec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "mul_vec dimension mismatch");
        assert_eq!(y.len(), self.rows, "mul_vec output length mismatch");
        y.fill(0.0);
        for (j, &xj) in x.iter().enumerate() {
            if xj != 0.0 {
                for (yi, &aij) in y.iter_mut().zip(self.col(j)) {
                    *yi += aij * xj;
                }
            }
        }
    }

    /// In-place product-subtract `y -= self * x` (the back-substitution
    /// kernel: subtract an off-diagonal block's contribution without any
    /// temporary).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()` or `y.len() != self.rows()`.
    pub fn sub_mul_vec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "sub_mul_vec dimension mismatch");
        assert_eq!(y.len(), self.rows, "sub_mul_vec output length mismatch");
        for (j, &xj) in x.iter().enumerate() {
            if xj != 0.0 {
                for (yi, &aij) in y.iter_mut().zip(self.col(j)) {
                    *yi -= aij * xj;
                }
            }
        }
    }

    /// Transposed matrix-vector product `y = selfᵀ * x` (allocating; hot
    /// paths use [`Matrix::mul_vec_t_into`] instead).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.rows()`.
    pub fn mul_vec_t(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.cols];
        self.mul_vec_t_into(x, &mut y);
        y
    }

    /// In-place transposed matrix-vector product `y = selfᵀ * x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.rows()` or `y.len() != self.cols()`.
    pub fn mul_vec_t_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.rows, "mul_vec_t dimension mismatch");
        assert_eq!(y.len(), self.cols, "mul_vec_t output length mismatch");
        for (j, yj) in y.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (&aij, &xi) in self.col(j).iter().zip(x) {
                acc += aij * xi;
            }
            *yj = acc;
        }
    }

    /// Frobenius norm.
    pub fn frob_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Maximum absolute entry (the max norm); 0 for empty matrices.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, x| m.max(x.abs()))
    }

    /// Maximum absolute difference from `other`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!(self.rows, other.rows, "max_abs_diff row mismatch");
        assert_eq!(self.cols, other.cols, "max_abs_diff col mismatch");
        self.data
            .iter()
            .zip(other.data.iter())
            .fold(0.0_f64, |m, (a, b)| m.max((a - b).abs()))
    }

    /// `true` when all entries differ from `other` by at most `tol`.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.rows == other.rows && self.cols == other.cols && self.max_abs_diff(other) <= tol
    }

    /// Symmetrizes the matrix in place: `self = (self + selfᵀ) / 2`.
    ///
    /// Used to keep covariance blocks symmetric in the presence of rounding.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn symmetrize(&mut self) {
        assert!(self.is_square(), "symmetrize requires a square matrix");
        for j in 0..self.cols {
            for i in (j + 1)..self.rows {
                let avg = 0.5 * (self[(i, j)] + self[(j, i)]);
                self[(i, j)] = avg;
                self[(j, i)] = avg;
            }
        }
    }

    /// `true` when every entry below the main diagonal is zero (any shape).
    pub fn is_upper_triangular(&self) -> bool {
        (0..self.cols).all(|j| self.col(j).iter().skip(j + 1).all(|&v| v == 0.0))
    }

    /// Returns the main diagonal as a vector.
    pub fn diag(&self) -> Vec<f64> {
        let n = self.rows.min(self.cols);
        (0..n).map(|i| self[(i, i)]).collect()
    }

    /// Keeps only the upper triangle (entries with `i <= j`), zeroing the rest.
    pub fn upper_triangular_part(&self) -> Matrix {
        let mut m = self.clone();
        for j in 0..m.cols {
            for i in (j + 1)..m.rows {
                m[(i, j)] = 0.0;
            }
        }
        m
    }

    /// Iterator over `(i, j, value)` of all entries, column by column.
    pub fn entries(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.cols).flat_map(move |j| (0..self.rows).map(move |i| (i, j, self[(i, j)])))
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &self.data[i + j * self.rows]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &mut self.data[i + j * self.rows]
    }
}

impl Add<&Matrix> for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        // lint: allow(alloc, "by-value operator impl allocates its output by contract; the hot-path edge is a name-graph artifact of raw-pointer `.add(i)` in the SIMD kernels, which never call this")
        let mut out = self.clone();
        out.axpy(1.0, rhs);
        out
    }
}

impl Sub<&Matrix> for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        let mut out = self.clone();
        out.axpy(-1.0, rhs);
        out
    }
}

impl AddAssign<&Matrix> for Matrix {
    fn add_assign(&mut self, rhs: &Matrix) {
        self.axpy(1.0, rhs);
    }
}

impl SubAssign<&Matrix> for Matrix {
    fn sub_assign(&mut self, rhs: &Matrix) {
        self.axpy(-1.0, rhs);
    }
}

impl Neg for &Matrix {
    type Output = Matrix;
    fn neg(self) -> Matrix {
        self.scaled(-1.0)
    }
}

impl Mul<&Matrix> for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: &Matrix) -> Matrix {
        crate::gemm::matmul(self, rhs)
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(12) {
            write!(f, "  ")?;
            for j in 0..self.cols.min(12) {
                write!(f, "{:>12.5e} ", self[(i, j)])?;
            }
            if self.cols > 12 {
                write!(f, "...")?;
            }
            writeln!(f)?;
        }
        if self.rows > 12 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.rows(), 2);
        assert_eq!(z.cols(), 3);
        assert!(z.as_slice().iter().all(|&x| x == 0.0));

        let i = Matrix::identity(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(1, 1)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
    }

    #[test]
    fn from_rows_matches_indexing() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 2);
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(2, 1)], 6.0);
        // Column-major storage: first column contiguous.
        assert_eq!(m.col(0), &[1.0, 3.0, 5.0]);
    }

    #[test]
    fn from_diag_builds_diagonal() {
        let d = Matrix::from_diag(&[1.0, 2.0, 3.0]);
        assert_eq!(d.diag(), vec![1.0, 2.0, 3.0]);
        assert_eq!(d[(0, 1)], 0.0);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let t = m.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(t[(2, 0)], 3.0);
        assert!(t.transpose().approx_eq(&m, 0.0));
    }

    #[test]
    fn sub_matrix_and_set_block() {
        let m = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        let s = m.sub_matrix(1, 2, 2, 2);
        assert_eq!(s[(0, 0)], m[(1, 2)]);
        assert_eq!(s[(1, 1)], m[(2, 3)]);

        let mut z = Matrix::zeros(4, 4);
        z.set_block(1, 2, &s);
        assert_eq!(z[(1, 2)], m[(1, 2)]);
        assert_eq!(z[(0, 0)], 0.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn sub_matrix_out_of_bounds_panics() {
        let m = Matrix::zeros(2, 2);
        let _ = m.sub_matrix(1, 1, 2, 2);
    }

    #[test]
    fn vstack_hstack() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 4.0], &[5.0, 6.0]]);
        let v = Matrix::vstack(&[&a, &b]);
        assert_eq!(v.rows(), 3);
        assert_eq!(v[(2, 1)], 6.0);

        let c = Matrix::from_rows(&[&[1.0], &[2.0]]);
        let d = Matrix::from_rows(&[&[3.0, 4.0], &[5.0, 6.0]]);
        let h = Matrix::hstack(&[&c, &d]);
        assert_eq!(h.cols(), 3);
        assert_eq!(h[(1, 2)], 6.0);
    }

    #[test]
    fn mul_vec_and_transposed() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.mul_vec(&[1.0, 1.0]), vec![3.0, 7.0]);
        assert_eq!(m.mul_vec_t(&[1.0, 1.0]), vec![4.0, 6.0]);
    }

    #[test]
    fn in_place_matvec_variants_match() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, -1.0], &[3.0, 4.0, 0.5]]);
        let x = [1.0, -2.0, 4.0];
        let mut y = [99.0, 99.0]; // stale contents must be overwritten
        m.mul_vec_into(&x, &mut y);
        assert_eq!(y.to_vec(), m.mul_vec(&x));

        let xt = [2.0, -1.0];
        let mut yt = [0.0; 3];
        m.mul_vec_t_into(&xt, &mut yt);
        assert_eq!(yt.to_vec(), m.mul_vec_t(&xt));

        // y -= A x on top of existing contents.
        let mut acc = [10.0, 20.0];
        m.sub_mul_vec_into(&x, &mut acc);
        let prod = m.mul_vec(&x);
        assert_eq!(acc[0], 10.0 - prod[0]);
        assert_eq!(acc[1], 20.0 - prod[1]);
    }

    #[test]
    fn clone_and_drop_roundtrip_through_workspace() {
        // A dropped matrix's buffer is reused by the next same-class
        // allocation on this thread (steady-state loops stop allocating).
        let before = crate::workspace::Workspace::with(|ws| ws.stats());
        {
            let a = Matrix::zeros(8, 8);
            let b = a.clone();
            assert!(b.approx_eq(&a, 0.0));
        }
        let after = crate::workspace::Workspace::with(|ws| ws.stats());
        if crate::workspace::pooling_enabled() {
            assert!(after.pooled_elems >= before.pooled_elems);
            let c = Matrix::zeros(8, 8);
            let hits = crate::workspace::Workspace::with(|ws| ws.stats()).hits;
            assert!(hits > before.hits, "pool should have served this");
            assert_eq!(c.max_abs(), 0.0, "recycled buffer must be zeroed");
        }
    }

    /// A block's storage is less than a quarter longer than the block: the
    /// paper's 6 × 6 and 48 × 48 panels, and a 96 × 49 stack of the latter.
    #[test]
    fn block_storage_is_within_a_quarter_of_its_length() {
        for (rows, cols) in [(6, 6), (48, 48), (96, 49)] {
            let m = Matrix::zeros(rows, cols);
            let (len, cap) = (rows * cols, m.data.capacity());
            assert!(cap >= len && 4 * cap <= 5 * len, "{rows} × {cols}: {cap}");
        }
    }

    #[test]
    fn norms() {
        let m = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, -4.0]]);
        assert!((m.frob_norm() - 5.0).abs() < 1e-15);
        assert_eq!(m.max_abs(), 4.0);
    }

    #[test]
    fn arithmetic_ops() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::identity(2);
        let sum = &a + &b;
        assert_eq!(sum[(0, 0)], 2.0);
        let diff = &sum - &b;
        assert!(diff.approx_eq(&a, 0.0));
        let neg = -&a;
        assert_eq!(neg[(1, 0)], -3.0);
    }

    #[test]
    fn symmetrize_averages() {
        let mut m = Matrix::from_rows(&[&[1.0, 2.0], &[4.0, 1.0]]);
        m.symmetrize();
        assert_eq!(m[(0, 1)], 3.0);
        assert_eq!(m[(1, 0)], 3.0);
    }

    #[test]
    fn two_cols_mut_disjoint() {
        let mut m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        {
            let (c0, c2) = m.two_cols_mut(0, 2);
            c0[0] = 10.0;
            c2[1] = 60.0;
        }
        assert_eq!(m[(0, 0)], 10.0);
        assert_eq!(m[(1, 2)], 60.0);
        // Reversed order works too.
        {
            let (c2, c0) = m.two_cols_mut(2, 0);
            assert_eq!(c2[1], 60.0);
            assert_eq!(c0[0], 10.0);
        }
    }

    #[test]
    fn upper_triangular_part_zeroes_lower() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let u = m.upper_triangular_part();
        assert_eq!(u[(1, 0)], 0.0);
        assert_eq!(u[(0, 1)], 2.0);
        assert!(u.is_upper_triangular() && !m.is_upper_triangular());
        assert!(Matrix::zeros(1, 3).is_upper_triangular());
    }

    #[test]
    fn entries_iterates_all() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let total: f64 = m.entries().map(|(_, _, v)| v).sum();
        assert_eq!(total, 10.0);
    }
}
