//! Symbolic schedule for the associative-scan smoother.
//!
//! The scan smoother's structure — which element pairs combine at which
//! sweep level — depends only on the window length, exactly as the
//! odd-even `PlanSchedule`'s even/odd column lists depend only on the
//! per-step dimensions.  [`ScanSchedule`] precomputes the pairings of
//! a work-efficient (Brent–Kung) fixed-tree inclusive scan: an up-sweep
//! reducing power-of-two blocks followed by a down-sweep distributing the
//! partial prefixes.  Two properties matter to the executor:
//!
//! * **Fixed association order.**  The tree's combine order is a function
//!   of the length alone — never of thread count, grain, or steal timing —
//!   so `ExecPolicy::Seq` and `ExecPolicy::par()` perform the *identical*
//!   floating-point operations and the scan stays bitwise deterministic
//!   across policies (unlike `kalman_par::inclusive_scan_in_place`, whose
//!   block-and-carry association varies with the grain).
//! * **Disjoint pairs per level.**  Within one level every `(src, dst)`
//!   pair touches distinct slots, so a level can combine in parallel into
//!   pre-assigned output slots and write back serially.
//!
//! The same pair lists drive the backward (suffix) sweep by mirroring
//! indices (`i ↦ len−1−i`) and flipping the combine's operand order.

use kalman_odd_even::signature_of_dims;

/// Structural eligibility for the scan: the associative elements require
/// one common state dimension across a non-empty window.
pub(crate) fn uniform_dims(dims: &[usize]) -> bool {
    !dims.is_empty() && dims.windows(2).all(|w| w[0] == w[1])
}

/// One sweep level: disjoint `(src, dst)` pairs, each combining
/// `slot[dst] = slot[src] ⊗ slot[dst]` (with `src < dst` in scan order).
#[derive(Debug, Clone, Default)]
pub struct ScanLevel {
    pairs: Vec<(u32, u32)>,
}

impl ScanLevel {
    /// The `(src, dst)` pairs combined at this level.
    pub fn pairs(&self) -> &[(u32, u32)] {
        &self.pairs
    }
}

/// The symbolic plan of a fixed-tree associative scan over `len` slots:
/// up-sweep levels followed by down-sweep levels, in execution order.
///
/// Like the odd-even `PlanSchedule`, a schedule carries no numeric state.
#[derive(Debug, Clone, Default)]
pub struct ScanSchedule {
    dims: Vec<usize>,
    signature: u64,
    levels: Vec<ScanLevel>,
}

impl ScanSchedule {
    /// Builds the schedule for a window with the given per-step state
    /// dimensions.
    ///
    /// # Panics
    ///
    /// Panics if `dims` is empty or mixes state dimensions — the scan
    /// elements require one uniform dimension.
    pub fn build(dims: &[usize]) -> ScanSchedule {
        let mut schedule = ScanSchedule::default();
        schedule.rebuild(dims);
        schedule
    }

    /// Rebuilds this schedule in place for a new shape, retaining the
    /// level/pair allocations where possible.
    ///
    /// # Panics
    ///
    /// Same conditions as [`ScanSchedule::build`].
    pub fn rebuild(&mut self, dims: &[usize]) {
        assert!(
            uniform_dims(dims),
            "ScanSchedule requires a non-empty uniform-dimension window"
        );
        self.dims.clear();
        self.dims.extend_from_slice(dims);
        self.signature = signature_of_dims(dims.iter().copied());
        let len = dims.len();

        let mut used = 0;
        // Up-sweep: stride doubles; combine (i − stride) into i for
        // i = 2·stride − 1, step 2·stride.
        let mut stride = 1usize;
        while stride < len {
            let level = self.level_slot(&mut used);
            let mut dst = 2 * stride - 1;
            while dst < len {
                level.pairs.push(((dst - stride) as u32, dst as u32));
                dst += 2 * stride;
            }
            if level.pairs.is_empty() {
                used -= 1;
            }
            stride *= 2;
        }
        // Down-sweep: stride halves; combine i into (i + stride) for
        // i = 2·stride − 1, step 2·stride.
        stride /= 2;
        while stride >= 1 {
            let level = self.level_slot(&mut used);
            let mut src = 2 * stride - 1;
            while src + stride < len {
                level.pairs.push((src as u32, (src + stride) as u32));
                src += 2 * stride;
            }
            if level.pairs.is_empty() {
                used -= 1;
            }
            stride /= 2;
        }
        self.levels.truncate(used);
    }

    fn level_slot(&mut self, used: &mut usize) -> &mut ScanLevel {
        if self.levels.len() == *used {
            self.levels.push(ScanLevel::default());
        }
        let level = &mut self.levels[*used];
        level.pairs.clear();
        *used += 1;
        level
    }

    /// Per-step state dimensions of the planned shape.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// The uniform state dimension.
    pub fn state_dim(&self) -> usize {
        self.dims[0]
    }

    /// Shape signature ([`kalman_odd_even::signature_of_dims`]).
    pub fn signature(&self) -> u64 {
        self.signature
    }

    /// Number of scan slots (window steps).
    pub fn len(&self) -> usize {
        self.dims.len()
    }

    /// `true` for a zero-step schedule (never built; see
    /// [`ScanSchedule::build`]).
    pub fn is_empty(&self) -> bool {
        self.dims.is_empty()
    }

    /// The sweep levels in execution order (up-sweep then down-sweep).
    pub fn levels(&self) -> &[ScanLevel] {
        &self.levels
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference: run the schedule's pairs over an array of vectors with
    /// list concatenation as the (associative, non-commutative) operation;
    /// every slot must end up holding the exact prefix in order.
    fn check_prefix(len: usize) {
        let schedule = ScanSchedule::build(&vec![1; len]);
        let mut slots: Vec<Vec<usize>> = (0..len).map(|i| vec![i]).collect();
        for level in schedule.levels() {
            // Pairs must be disjoint within a level (parallel-safety).
            let mut touched = std::collections::HashSet::new();
            for &(src, dst) in level.pairs() {
                assert!(touched.insert(src), "len={len}: src {src} reused");
                assert!(touched.insert(dst), "len={len}: dst {dst} reused");
                assert!(src < dst);
            }
            for &(src, dst) in level.pairs() {
                let mut combined = slots[src as usize].clone();
                combined.extend_from_slice(&slots[dst as usize]);
                slots[dst as usize] = combined;
            }
        }
        for (i, slot) in slots.iter().enumerate() {
            let expect: Vec<usize> = (0..=i).collect();
            assert_eq!(slot, &expect, "len={len}, slot {i}");
        }
    }

    #[test]
    fn prefix_scan_is_exact_for_all_small_lengths() {
        for len in 1..=65 {
            check_prefix(len);
        }
        check_prefix(100);
        check_prefix(128);
        check_prefix(1000);
    }

    /// The mirrored interpretation (suffix sweep) must produce exact
    /// suffixes: mirror indices and flip the operand order.
    #[test]
    fn mirrored_pairs_form_an_exact_suffix_scan() {
        for len in [1usize, 2, 3, 7, 8, 9, 31, 33, 100] {
            let schedule = ScanSchedule::build(&vec![2; len]);
            let mut slots: Vec<Vec<usize>> = (0..len).map(|i| vec![i]).collect();
            for level in schedule.levels() {
                for &(src, dst) in level.pairs() {
                    let (msrc, mdst) = (len - 1 - src as usize, len - 1 - dst as usize);
                    // earlier ⊗ later with the mirrored dst as the earlier slot.
                    let mut combined = slots[mdst].clone();
                    combined.extend_from_slice(&slots[msrc]);
                    slots[mdst] = combined;
                }
            }
            for (i, slot) in slots.iter().enumerate() {
                let expect: Vec<usize> = (i..len).collect();
                assert_eq!(slot, &expect, "len={len}, slot {i}");
            }
        }
    }

    #[test]
    fn rebuild_reuses_and_signature_tracks_shape() {
        let mut s = ScanSchedule::build(&[3; 16]);
        assert_eq!(s.state_dim(), 3);
        assert_eq!(s.len(), 16);
        assert_eq!(s.signature(), signature_of_dims(vec![3; 16]));
        let sig16 = s.signature();
        s.rebuild(&[3; 9]);
        assert_eq!(s.len(), 9);
        assert_ne!(s.signature(), sig16);
        // Still a correct scan after the in-place rebuild.
        let mut slots: Vec<Vec<usize>> = (0..9).map(|i| vec![i]).collect();
        for level in s.levels() {
            for &(src, dst) in level.pairs() {
                let mut combined = slots[src as usize].clone();
                combined.extend_from_slice(&slots[dst as usize]);
                slots[dst as usize] = combined;
            }
        }
        assert_eq!(slots[8], (0..=8).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "uniform")]
    fn mixed_dimensions_are_rejected() {
        ScanSchedule::build(&[2, 3]);
    }

    #[test]
    fn single_slot_schedule_has_no_levels() {
        let s = ScanSchedule::build(&[4]);
        assert!(s.levels().is_empty());
        assert!(!s.is_empty());
    }
}
