//! `parallel_for` equivalents with explicit grain control.

use crate::ExecPolicy;
use rayon::prelude::*;

/// Applies `f` to every index in `0..n`, mirroring `tbb::parallel_for` over a
/// `blocked_range` with the policy's block size.
pub fn for_each_index<F>(policy: ExecPolicy, n: usize, f: F)
where
    F: Fn(usize) + Sync + Send,
{
    match policy {
        ExecPolicy::Seq => {
            for i in 0..n {
                f(i);
            }
        }
        ExecPolicy::Par { grain } => {
            let grain = grain.max(1);
            // Chunked indices: each task runs `grain` consecutive iterations
            // sequentially, like TBB's simple_partitioner with a block size.
            (0..n)
                .into_par_iter()
                .with_min_len(grain)
                .with_max_len(grain)
                .for_each(&f);
        }
    }
}

/// Runs `a` and `b` and returns both results: forked on the current pool
/// (`rayon::join`, so either closure may be stolen) under a parallel
/// policy, one after the other under [`ExecPolicy::Seq`].  This is the
/// primitive of divide-and-conquer walks; callers pass
/// `policy.for_len(size)` so that subproblems that fit in one grain stay
/// off the scheduler.
pub fn join<A, B, RA, RB>(policy: ExecPolicy, a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    match policy {
        ExecPolicy::Seq => (a(), b()),
        ExecPolicy::Par { .. } => rayon::join(a, b),
    }
}

/// Applies `f(i, &mut item)` to every element of `items`.
///
/// This is the primitive the smoothers use to initialize and transform the
/// per-step structure array in place.
pub fn for_each_mut<T, F>(policy: ExecPolicy, items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync + Send,
{
    match policy {
        ExecPolicy::Seq => {
            for (i, item) in items.iter_mut().enumerate() {
                f(i, item);
            }
        }
        ExecPolicy::Par { grain } => {
            let grain = grain.max(1);
            items
                .par_chunks_mut(grain)
                .enumerate()
                .for_each(|(c, chunk)| {
                    let base = c * grain;
                    for (off, item) in chunk.iter_mut().enumerate() {
                        f(base + off, item);
                    }
                });
        }
    }
}

/// Evaluates `f(i)` for `i` in `0..n` and collects the results in order.
pub fn map_collect<T, F>(policy: ExecPolicy, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync + Send,
{
    match policy {
        ExecPolicy::Seq => (0..n).map(f).collect(),
        ExecPolicy::Par { grain } => {
            let grain = grain.max(1);
            (0..n).into_par_iter().with_min_len(grain).map(f).collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn for_each_index_visits_every_index_once() {
        for policy in [
            ExecPolicy::Seq,
            ExecPolicy::par(),
            ExecPolicy::par_with_grain(1),
        ] {
            let hits: Vec<AtomicUsize> = (0..97).map(|_| AtomicUsize::new(0)).collect();
            for_each_index(policy, 97, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed); // Relaxed: pure count; the parallel region's join orders it before the assert.
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1)); // Relaxed: read after the join's happens-before edge.
        }
    }

    #[test]
    fn for_each_mut_matches_sequential() {
        let mut seq: Vec<usize> = (0..1000).collect();
        let mut par: Vec<usize> = (0..1000).collect();
        for_each_mut(ExecPolicy::Seq, &mut seq, |i, x| *x = *x * 3 + i);
        for_each_mut(ExecPolicy::par_with_grain(7), &mut par, |i, x| {
            *x = *x * 3 + i
        });
        assert_eq!(seq, par);
    }

    #[test]
    fn join_returns_both_results_under_either_policy() {
        for policy in [ExecPolicy::Seq, ExecPolicy::par()] {
            let mut left = 0;
            let (a, b) = join(policy, || left += 21, || 2);
            assert_eq!((a, b, left), ((), 2, 21));
        }
    }

    #[test]
    fn map_collect_preserves_order() {
        let seq = map_collect(ExecPolicy::Seq, 500, |i| i * i);
        let par = map_collect(ExecPolicy::par_with_grain(3), 500, |i| i * i);
        assert_eq!(seq, par);
    }

    #[test]
    fn empty_ranges_are_fine() {
        for_each_index(ExecPolicy::par(), 0, |_| panic!("must not run"));
        let v: Vec<u8> = map_collect(ExecPolicy::par(), 0, |_| 0u8);
        assert!(v.is_empty());
        let mut empty: [u8; 0] = [];
        for_each_mut(ExecPolicy::par(), &mut empty, |_, _| panic!("must not run"));
    }

    #[test]
    fn huge_grain_degenerates_to_sequential_chunks() {
        let mut v: Vec<usize> = (0..100).collect();
        for_each_mut(ExecPolicy::par_with_grain(1_000_000), &mut v, |i, x| {
            *x += i
        });
        let expect: Vec<usize> = (0..100).map(|i| 2 * i).collect();
        assert_eq!(v, expect);
    }
}
