//! The scalar oracle applies a Householder reflector to every column in one
//! order, summed from the pivot, whether the column rides in a quad or is
//! left over after them: five identical columns come out bitwise identical.
//!
//! Only the reference kernels promise this.  On the SIMD layer a quad's
//! column (`reflector_quad`, four lanes per column) and a left-over one
//! (`reflector_one`, through `dot`'s two four-lane accumulators) round
//! differently, legitimately.
//!
//! Every test here forces the reference kernels and none turns them off, so
//! the process-global switch needs no lock in this binary.

use kalman_dense::{qr_tri_stack_applying, random, set_reference_kernels, Matrix, QrFactor};

/// Five copies of one column of `rows` entries.
fn five_identical_columns(rows: usize, seed: usize) -> Matrix {
    let col = random::deterministic_well_conditioned(rows + seed, 1).sub_matrix(seed, 0, rows, 1);
    Matrix::from_fn(rows, 5, |i, _| col[(i, 0)])
}

fn assert_columns_bitwise_equal(m: &Matrix, what: &str) {
    let bits = |c: usize| m.col(c).iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    for c in 1..m.cols() {
        assert_eq!(bits(c), bits(0), "{what}: column {c} differs from column 0");
    }
}

#[test]
fn reference_tri_stack_updates_every_companion_column_alike() {
    set_reference_kernels(true);
    for (n, l) in [(3usize, 4usize), (6, 7), (8, 8)] {
        let mut r = random::deterministic_well_conditioned(n, n).upper_triangular_part();
        let mut d = random::deterministic_well_conditioned(l + n, n).sub_matrix(n, 0, l, n);
        let (mut top, mut bottom) = (five_identical_columns(n, 1), five_identical_columns(l, 2));
        qr_tri_stack_applying(&mut r, &mut d, &mut [(&mut top, &mut bottom)]);
        assert_columns_bitwise_equal(&top, &format!("tri-stack n={n} l={l} top"));
        assert_columns_bitwise_equal(&bottom, &format!("tri-stack n={n} l={l} bottom"));
    }
}

#[test]
fn reference_apply_qt_updates_every_column_alike() {
    set_reference_kernels(true);
    for (m, n) in [(5usize, 3usize), (9, 4), (16, 8)] {
        let qr = QrFactor::new(random::deterministic_well_conditioned(m, n));
        let mut b = five_identical_columns(m, 3);
        qr.apply_qt(&mut b);
        assert_columns_bitwise_equal(&b, &format!("apply_qt {m}x{n}"));
    }
}
