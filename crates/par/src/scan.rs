//! Generic parallel prefix scan on a fixed combine tree.
//!
//! The Särkkä & García-Fernández smoother is a pair of prefix sums under
//! custom associative operations (§2.3 of the paper); this module provides
//! the scan primitive they run on.  It is a work-efficient (Brent–Kung)
//! scan: an up-sweep reducing power-of-two blocks, then a down-sweep
//! distributing their prefixes.  Two properties matter:
//!
//! * **Fixed association order.**  Which slots combine at which level is a
//!   function of the length alone — never of the policy, grain, thread
//!   count or steal timing — and [`ExecPolicy::Seq`] runs the same tree, so
//!   a scan of floating-point elements is bitwise equal under every policy.
//! * **Disjoint pairs per level.**  Within one level every `(src, dst)` pair
//!   touches distinct slots, so a level combines in one parallel map into
//!   pre-assigned slots and writes back serially.
//!
//! Work is `Θ(k)` combine operations and the critical path is `Θ(log k)`
//! levels, matching the analysis the paper relies on.  No identity element
//! is required, which matters because the smoother's elements have no cheap
//! identity.

use crate::{map_collect, ExecPolicy};

/// The combine pairs of a Brent–Kung scan over `len` slots, level by level
/// in execution order.  A pair `(src, dst)` has `src < dst` and means
/// `slot[dst] ← slot[src] ⊗ slot[dst]`; no slot appears twice in a level.
fn levels(len: usize) -> Vec<Vec<(usize, usize)>> {
    let mut levels: Vec<Vec<(usize, usize)>> = Vec::new();
    // Up-sweep: stride doubles; combine (i − stride) into i for
    // i = 2·stride − 1, step 2·stride.
    let mut stride = 1;
    while stride < len {
        let pairs = (2 * stride - 1..len).step_by(2 * stride);
        levels.push(pairs.map(|dst| (dst - stride, dst)).collect());
        stride *= 2;
    }
    // Down-sweep: stride halves; combine i into (i + stride) for
    // i = 2·stride − 1, step 2·stride.
    while stride > 1 {
        stride /= 2;
        let pairs = (2 * stride - 1..len.saturating_sub(stride)).step_by(2 * stride);
        levels.push(pairs.map(|src| (src, src + stride)).collect());
    }
    levels.retain(|level| !level.is_empty());
    levels
}

/// Runs the tree over `items`; `mirrored` reflects every index
/// (`i ↦ len − 1 − i`) and flips the operand order, which turns the prefix
/// scan into the suffix scan.
fn sweep<T, F>(policy: ExecPolicy, items: &mut [T], op: F, mirrored: bool)
where
    T: Send + Sync,
    F: Fn(&T, &T) -> T + Sync,
{
    let last = items.len().saturating_sub(1);
    let at = |i: usize| if mirrored { last - i } else { i };
    for level in levels(items.len()) {
        let slots: &[T] = items;
        let combined = map_collect(policy.for_len(level.len()), level.len(), |j| {
            let (src, dst) = (at(level[j].0), at(level[j].1));
            if mirrored {
                op(&slots[dst], &slots[src])
            } else {
                op(&slots[src], &slots[dst])
            }
        });
        for (&(_, dst), value) in level.iter().zip(combined) {
            items[at(dst)] = value;
        }
    }
}

/// In-place inclusive prefix scan: `items[i] ← a_0 ⊗ a_1 ⊗ … ⊗ a_i`.
///
/// `op` must be associative (it need not be commutative, and no identity is
/// required).  Every policy runs the same combine tree, so the result does
/// not depend on it, bit for bit.
pub fn inclusive_scan_in_place<T, F>(policy: ExecPolicy, items: &mut [T], op: F)
where
    T: Clone + Send + Sync,
    F: Fn(&T, &T) -> T + Sync,
{
    sweep(policy, items, op, false);
}

/// In-place inclusive suffix scan: `items[i] ← a_i ⊗ a_{i+1} ⊗ … ⊗ a_{k-1}`.
///
/// Operands are combined in increasing index order (matching the backward
/// pass of the associative smoother, which runs its scan from the last step
/// toward the first), on the prefix scan's tree mirrored.
pub fn suffix_scan_in_place<T, F>(policy: ExecPolicy, items: &mut [T], op: F)
where
    T: Clone + Send + Sync,
    F: Fn(&T, &T) -> T + Sync,
{
    sweep(policy, items, op, true);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_sum_matches_sequential() {
        let base: Vec<u64> = (1..=1000).collect();
        let mut seq = base.clone();
        inclusive_scan_in_place(ExecPolicy::Seq, &mut seq, |a, b| a + b);
        for grain in [1, 3, 10, 100, 5000] {
            let mut par = base.clone();
            inclusive_scan_in_place(ExecPolicy::par_with_grain(grain), &mut par, |a, b| a + b);
            assert_eq!(seq, par, "grain {grain}");
        }
    }

    #[test]
    fn suffix_sum_matches_sequential() {
        let base: Vec<u64> = (1..=777).collect();
        let mut seq = base.clone();
        suffix_scan_in_place(ExecPolicy::Seq, &mut seq, |a, b| a + b);
        assert_eq!(seq[776], 777);
        assert_eq!(seq[0], (1..=777).sum::<u64>());
        for grain in [1, 4, 64, 10_000] {
            let mut par = base.clone();
            suffix_scan_in_place(ExecPolicy::par_with_grain(grain), &mut par, |a, b| a + b);
            assert_eq!(seq, par, "grain {grain}");
        }
    }

    /// A non-commutative associative operation: 2x2 integer matrix multiply.
    fn matmul2(a: &[i64; 4], b: &[i64; 4]) -> [i64; 4] {
        // Row-major [a0 a1; a2 a3] * [b0 b1; b2 b3]
        [
            a[0] * b[0] + a[1] * b[2],
            a[0] * b[1] + a[1] * b[3],
            a[2] * b[0] + a[3] * b[2],
            a[2] * b[1] + a[3] * b[3],
        ]
    }

    #[test]
    fn non_commutative_op_order_is_respected() {
        // Fibonacci via products of [[1,1],[1,0]] — order matters.
        let base: Vec<[i64; 4]> = vec![[1, 1, 1, 0]; 30];
        let mut seq = base.clone();
        inclusive_scan_in_place(ExecPolicy::Seq, &mut seq, matmul2);
        let mut par = base.clone();
        inclusive_scan_in_place(ExecPolicy::par_with_grain(2), &mut par, matmul2);
        assert_eq!(seq, par);
        // 30th product gives Fibonacci numbers.
        assert_eq!(seq[29][1], 832_040); // F(30)
    }

    #[test]
    fn non_commutative_suffix_matches_fold() {
        let base: Vec<[i64; 4]> = (0..25).map(|i| [i % 3, 1 + (i % 2), 1, i % 5]).collect();
        let mut expect = base.clone();
        for i in (0..24).rev() {
            expect[i] = matmul2(&base[i], &expect[i + 1]);
        }
        let mut got = base.clone();
        suffix_scan_in_place(ExecPolicy::par_with_grain(3), &mut got, matmul2);
        assert_eq!(expect, got);
    }

    #[test]
    fn tiny_inputs() {
        let mut empty: Vec<u64> = vec![];
        inclusive_scan_in_place(ExecPolicy::par(), &mut empty, |a, b| a + b);
        suffix_scan_in_place(ExecPolicy::Seq, &mut empty, |a, b| a + b);
        let mut one = vec![5u64];
        inclusive_scan_in_place(ExecPolicy::par(), &mut one, |a, b| a + b);
        assert_eq!(one, vec![5]);
        let mut two = vec![5u64, 6];
        suffix_scan_in_place(ExecPolicy::par_with_grain(1), &mut two, |a, b| a + b);
        assert_eq!(two, vec![11, 6]);
    }

    #[test]
    fn string_concat_prefix_scan() {
        // Strings under concatenation: associative, non-commutative, no identity needed.
        let base: Vec<String> = "abcdefghij".chars().map(|c| c.to_string()).collect();
        let mut v = base.clone();
        inclusive_scan_in_place(ExecPolicy::par_with_grain(2), &mut v, |a, b| {
            format!("{a}{b}")
        });
        assert_eq!(v[9], "abcdefghij");
        assert_eq!(v[3], "abcd");
    }

    /// List concatenation is associative and non-commutative, so a slot
    /// holds the exact list of the indices it combined, in order.
    fn concat(a: &[usize], b: &[usize]) -> Vec<usize> {
        a.iter().chain(b).copied().collect()
    }

    const POLICIES: [ExecPolicy; 3] = [
        ExecPolicy::Seq,
        ExecPolicy::Par { grain: 1 },
        ExecPolicy::Par { grain: 7 },
    ];

    /// Every slot ends up holding the exact prefix, under every policy, and
    /// the pairs of each level are disjoint (what makes a level one
    /// parallel map).
    #[test]
    fn prefix_scan_is_exact_for_all_small_lengths() {
        for len in (1..=65).chain([100, 128, 1000]) {
            for level in levels(len) {
                let mut touched = std::collections::HashSet::new();
                for (src, dst) in level {
                    assert!(src < dst && dst < len, "len={len}: ({src}, {dst})");
                    assert!(touched.insert(src), "len={len}: src {src} reused");
                    assert!(touched.insert(dst), "len={len}: dst {dst} reused");
                }
            }
            for policy in POLICIES {
                let mut slots: Vec<Vec<usize>> = (0..len).map(|i| vec![i]).collect();
                inclusive_scan_in_place(policy, &mut slots, |a, b| concat(a, b));
                for (i, slot) in slots.iter().enumerate() {
                    let expect: Vec<usize> = (0..=i).collect();
                    assert_eq!(slot, &expect, "len={len} {policy:?}, slot {i}");
                }
            }
        }
    }

    /// The suffix scan runs the same pairs mirrored and must produce exact
    /// suffixes.
    #[test]
    fn mirrored_pairs_form_an_exact_suffix_scan() {
        for len in (1..=65).chain([100, 128, 1000]) {
            for policy in POLICIES {
                let mut slots: Vec<Vec<usize>> = (0..len).map(|i| vec![i]).collect();
                suffix_scan_in_place(policy, &mut slots, |a, b| concat(a, b));
                for (i, slot) in slots.iter().enumerate() {
                    let expect: Vec<usize> = (i..len).collect();
                    assert_eq!(slot, &expect, "len={len} {policy:?}, slot {i}");
                }
            }
        }
    }

    #[test]
    fn single_slot_schedule_has_no_levels() {
        assert!(levels(0).is_empty());
        assert!(levels(1).is_empty());
        assert_eq!(levels(2), vec![vec![(0, 1)]]);
    }
}
