/// Default block size (grain) for parallel loops.
///
/// The paper uses a TBB block size of 10 unless noted otherwise (§5.1) and
/// shows (Fig. 6, left) that performance is flat from 1 up to ~1000.
pub const DEFAULT_GRAIN: usize = 10;

/// Execution policy for the parallel primitives.
///
/// `Seq` is not "parallel code on one thread": it compiles to plain loops
/// with no scheduler involvement, exactly like the paper's separately
/// compiled sequential variants.  `Par` uses the rayon pool that is current
/// at the call site (see [`run_with_threads`]) with the given grain size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecPolicy {
    /// Plain sequential loops; no scheduler, no task overhead.
    Seq,
    /// Work-stealing parallel execution with the given block size (grain):
    /// the number of consecutive iterations each task executes sequentially.
    Par {
        /// Number of consecutive iterations per task; must be >= 1.
        grain: usize,
    },
}

impl ExecPolicy {
    /// Parallel policy with the paper's default block size.
    pub fn par() -> Self {
        ExecPolicy::Par {
            grain: DEFAULT_GRAIN,
        }
    }

    /// Parallel policy with an explicit block size (clamped to >= 1).
    pub fn par_with_grain(grain: usize) -> Self {
        ExecPolicy::Par {
            grain: grain.max(1),
        }
    }

    /// `true` for the parallel policy.
    pub fn is_parallel(&self) -> bool {
        matches!(self, ExecPolicy::Par { .. })
    }

    /// The grain size (1 for sequential policies, which do not chunk).
    pub fn grain(&self) -> usize {
        match self {
            ExecPolicy::Seq => 1,
            ExecPolicy::Par { grain } => (*grain).max(1),
        }
    }

    /// The policy a batch of `len` items should actually run under: a
    /// parallel policy degrades to [`ExecPolicy::Seq`] when the batch fits
    /// in a single grain — such a batch cannot split, so going through the
    /// scheduler only adds task overhead.  The odd-even walks ask it for
    /// every subtree they might fork, and the scans for every level of
    /// their combine tree.  Arithmetic is unaffected: the parallel
    /// primitives are index-stable, so `Seq` and `Par` are bitwise equal.
    pub fn for_len(self, len: usize) -> ExecPolicy {
        match self {
            ExecPolicy::Par { grain } if len <= grain.max(1) => ExecPolicy::Seq,
            p => p,
        }
    }
}

/// Runs `f` inside a dedicated rayon pool with `threads` worker threads.
///
/// This is how the benchmark harness sweeps core counts, mirroring the
/// paper's "instruct TBB to use a certain number of cores".  Nested calls to
/// the parallel primitives inside `f` use this pool.
///
/// # Panics
///
/// Panics if the pool cannot be built (e.g. `threads == 0`).
pub fn run_with_threads<T: Send>(threads: usize, f: impl FnOnce() -> T + Send) -> T {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("failed to build thread pool");
    pool.install(f)
}

/// Number of worker threads in the rayon pool current at the call site:
/// the enclosing [`run_with_threads`] pool's size, or the global pool's
/// size (which honors `RAYON_NUM_THREADS`) outside any pool.  This is the
/// parallelism an `ExecPolicy::Par` loop here would actually run with —
/// report this, not [`available_parallelism`], next to measured speedups.
pub fn current_pool_threads() -> usize {
    rayon::current_num_threads()
}

/// Number of hardware threads available to this process.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grain_is_clamped() {
        assert_eq!(ExecPolicy::par_with_grain(0).grain(), 1);
        assert_eq!(ExecPolicy::par_with_grain(7).grain(), 7);
        assert_eq!(ExecPolicy::Seq.grain(), 1);
    }

    #[test]
    fn for_len_degrades_single_grain_batches() {
        let par = ExecPolicy::par_with_grain(10);
        assert_eq!(par.for_len(10), ExecPolicy::Seq);
        assert_eq!(par.for_len(1), ExecPolicy::Seq);
        assert_eq!(par.for_len(11), par);
        assert_eq!(ExecPolicy::Seq.for_len(1_000_000), ExecPolicy::Seq);
    }

    #[test]
    fn default_par_uses_paper_block_size() {
        assert_eq!(ExecPolicy::par().grain(), DEFAULT_GRAIN);
    }

    #[test]
    fn run_with_threads_returns_value() {
        let x = run_with_threads(2, || 21 * 2);
        assert_eq!(x, 42);
    }

    #[test]
    fn run_with_threads_controls_pool_size() {
        let n = run_with_threads(3, rayon::current_num_threads);
        assert_eq!(n, 3);
    }
}
