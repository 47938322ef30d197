//! Per-worker scratch workspace: a size-classed buffer recycler that makes
//! the hot smoothing loops allocation-free in steady state.
//!
//! Every [`Matrix`](crate::Matrix) allocation in this crate is routed
//! through a thread-local [`Workspace`]: buffers are handed out from
//! power-of-two size-class free lists and returned when the matrix is
//! dropped (see `Drop for Matrix`), so a loop that repeatedly builds and
//! discards temporaries — the odd-even elimination tasks, SelInv rows,
//! `InfoHead::eliminate`, a streaming smoother's per-flush sweep — performs
//! **zero heap allocations per iteration once the pool has warmed up**.
//! The same pool recycles the index/coefficient vectors of the QR
//! factorizations (`tau`, column-pivot permutations).
//!
//! Design rules (documented in DESIGN.md §"Dense kernels"):
//!
//! * **Per-worker**: the workspace is a `thread_local`, so parallel batches
//!   need no synchronization and recycling stays deterministic.  A buffer
//!   freed on a different thread than it was taken from simply warms that
//!   thread's pool instead (ownership of buffers is never shared).
//! * **Bounded**: each size class keeps at most `max(1, 2^15 >> class)`
//!   buffers and only lengths between 2^[`MIN_CLASS`] and 2^[`MAX_CLASS`]
//!   elements are pooled; everything beyond falls through to the global
//!   allocator, so the pool retains at most ≈ 7 MiB per thread.  Callers
//!   that execute a batch-scale working set repeatedly (a `SmoothPlan`)
//!   lift the per-class budgets for the duration with [`arena_scope`], so
//!   the pool sizes itself to the plan's recursion instead of the budgets.
//! * **Disableable**: [`set_pooling`] turns recycling off globally, which
//!   the benchmark harness uses to measure the allocator's contribution.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};

/// Element budget per size class (per thread): class `c` keeps at most
/// `max(1, MAX_CLASS_ELEMS >> c)` buffers, so tiny-block-heavy workloads
/// (state dimension 4 smoothers juggle hundreds of 16-element buffers at
/// once) stay pooled while each class is bounded to ~256 KiB (one buffer
/// for the largest classes).
pub const MAX_CLASS_ELEMS: usize = 1 << 15;
/// Largest pooled size class: buffers of up to `2^MAX_CLASS` elements
/// (256 Ki elements = 2 MiB of f64).  Bigger buffers go straight to the
/// global allocator — at that size the allocation cost is amortized by the
/// work done on the buffer, and pooling them would blow the retention
/// bound.  Worst-case retention across all classes is ≈ 7 MiB per thread.
pub const MAX_CLASS: usize = 18;
/// Smallest pooled size class (16 elements); tinier buffers are dropped —
/// `take` never requests below this, so they could never be served.
pub const MIN_CLASS: usize = 4;

/// Maximum pooled buffers for size class `class`.
#[inline]
fn class_capacity(class: usize) -> usize {
    (MAX_CLASS_ELEMS >> class).max(1)
}

/// Global pooling switch (see [`set_pooling`]).
static POOLING: AtomicBool = AtomicBool::new(true);

thread_local! {
    /// Live [`ArenaScope`] guards on this thread.  Thread-local on purpose:
    /// the budgets being lifted belong to the *thread's* pool, so one
    /// thread's batch-scale plan must not let unrelated threads retain
    /// without bound.
    static ARENA_SCOPES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}
/// Global switch for the tuned kernels (blocked GEMM, SIMD tiles, mono
/// rungs).  `true` forces the naive scalar reference paths everywhere.
static REFERENCE_KERNELS: AtomicBool = AtomicBool::new(false);
static REFERENCE_KERNELS_INIT: AtomicBool = AtomicBool::new(false);

/// Enables or disables buffer pooling process-wide (default: enabled).
/// Used by benchmarks to isolate the allocator's contribution; flipping it
/// mid-computation is safe (buffers taken under either setting are
/// correctly dropped).
pub fn set_pooling(enabled: bool) {
    // Relaxed: an independent on/off flag — no other memory is published
    // under it, and either value leaves takers correct.
    POOLING.store(enabled, Ordering::Relaxed);
}

/// `true` when buffer pooling is active.
pub fn pooling_enabled() -> bool {
    // Relaxed: see `set_pooling` — an independent flag.
    POOLING.load(Ordering::Relaxed)
}

/// RAII guard returned by [`arena_scope`]; dropping it restores the normal
/// per-class retention budgets (once no other guard on this thread is
/// alive).  `!Send` by construction — the guard must drop on the thread
/// whose counter it incremented.
#[derive(Debug)]
pub struct ArenaScope(std::marker::PhantomData<*const ()>);

impl Drop for ArenaScope {
    fn drop(&mut self) {
        let _ = ARENA_SCOPES.try_with(|c| c.set(c.get().saturating_sub(1)));
    }
}

/// Lifts the workspace's per-class retention budgets for the lifetime of the
/// returned guard — the "plan-owned arena" mode of the pool.
///
/// The default budgets (`max(1, 2^15 >> class)` buffers per class) bound a
/// long-running server's idle retention, but they are far smaller than the
/// working set of a batch-scale solve: an odd-even factorization of
/// `k = 20 000` steps keeps ~3 `n×n` blocks per step alive in its `R`
/// factor, so each repeated same-shape solve would push tens of thousands of
/// small buffers past the budget into the global allocator.  A
/// `SmoothPlan`-style caller that executes the same recursion many times
/// holds an `ArenaScope` across the numeric phases: every buffer the
/// recursion releases is retained (sizing the pool exactly to the plan's
/// working set), so steady-state re-executions perform zero heap
/// allocations.  The scope is per-thread (matching the pool it lifts) and
/// nestable; buffers retained under a scope stay pooled after it ends, for
/// the thread's lifetime.
pub fn arena_scope() -> ArenaScope {
    ARENA_SCOPES.with(|c| c.set(c.get() + 1));
    ArenaScope(std::marker::PhantomData)
}

/// `true` while any [`ArenaScope`] guard is alive on this thread.
#[inline]
pub fn arena_active() -> bool {
    ARENA_SCOPES.try_with(|c| c.get() > 0).unwrap_or(false)
}

/// The per-thread retention budget (in buffers) for pooled buffers of
/// `len` elements — what [`arena_scope`] lifts.  Callers sizing a reusable
/// working set (a `SmoothPlan` deciding whether it needs an arena at all)
/// compare their buffer counts against this.  Returns 0 for lengths the
/// pool never retains.
pub fn budget_for_len(len: usize) -> usize {
    class_of(len).map(class_capacity).unwrap_or(0)
}

/// Forces the naive scalar reference kernels (`gemm_ref`, scalar Householder
/// loops) process-wide.  The default (`false`, unless the
/// `KALMAN_REF_KERNELS` environment variable is set to something other
/// than `""`/`"0"`/`"off"`) uses the tuned kernels (blocked GEMM, SIMD
/// tiles, mono rungs).  The benchmark harness flips this to measure the
/// tuned kernels' speedup within one process.
pub fn set_reference_kernels(on: bool) {
    // Relaxed on both: callers flip this during single-threaded setup (the
    // bench harness, or the lazy env-derived init below, which is
    // idempotent) — thread spawn/join provides the happens-before edge for
    // any worker that later reads the flags.
    REFERENCE_KERNELS.store(on, Ordering::Relaxed);
    REFERENCE_KERNELS_INIT.store(true, Ordering::Relaxed); // Relaxed: see the setup/happens-before argument above.
}

/// `true` when the scalar reference kernels are forced.
pub fn reference_kernels() -> bool {
    // Relaxed: the lazy init is idempotent (every racer derives the same
    // value from the environment), so no ordering is needed.
    if !REFERENCE_KERNELS_INIT.load(Ordering::Relaxed) {
        // `""`, `"0"`, and `"off"` count as unset so a CI matrix can pass
        // the variable through unconditionally.
        let on = std::env::var("KALMAN_REF_KERNELS")
            .is_ok_and(|v| !(v.is_empty() || v == "0" || v == "off"));
        set_reference_kernels(on);
        return on;
    }
    REFERENCE_KERNELS.load(Ordering::Relaxed) // Relaxed: same idempotent-init argument as above.
}

/// Pool usage counters (per thread), for benchmark reporting and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkspaceStats {
    /// `take` calls served from the pool.
    pub hits: u64,
    /// `take` calls that fell through to the global allocator.
    pub misses: u64,
    /// f64 elements currently parked in the pool.
    pub pooled_elems: usize,
    /// `put` calls dropped because the buffer shape is not poolable.
    pub rejected_shape: u64,
    /// `put` calls dropped because the size class was full.
    pub rejected_full: u64,
}

/// Registers the workspace-pool counters as `dense.workspace.*` sampled
/// gauges in the `kalman-obs` registry (hits, misses, pooled_elems,
/// rejected_shape, rejected_full), plus the kernel-dispatch counters as
/// `dense.kernel.dispatch.{scalar,simd,mono}` (process-wide cumulative hit
/// counts for the three rungs of the dispatch ladder — see DESIGN.md
/// §"Dense kernels").  Idempotent — callers at every layer (the serving
/// front-end, benchmarks) may invoke it freely.
///
/// The workspace is **per-thread**: each sampler reads the pool of the
/// thread that takes the snapshot (normally the thread calling
/// `metrics_snapshot()` / the exporters), not a cross-thread aggregate.
/// The dispatch counters, by contrast, are process-global atomics.
pub fn register_workspace_gauges() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        kalman_obs::register_sampler("dense.kernel.dispatch.scalar", || {
            crate::simd::kernel_dispatch_counts().0 as f64
        });
        kalman_obs::register_sampler("dense.kernel.dispatch.simd", || {
            crate::simd::kernel_dispatch_counts().1 as f64
        });
        kalman_obs::register_sampler("dense.kernel.dispatch.mono", || {
            crate::simd::kernel_dispatch_counts().2 as f64
        });
        kalman_obs::register_sampler("dense.workspace.hits", || {
            Workspace::with(|w| w.stats().hits as f64)
        });
        kalman_obs::register_sampler("dense.workspace.misses", || {
            Workspace::with(|w| w.stats().misses as f64)
        });
        kalman_obs::register_sampler("dense.workspace.pooled_elems", || {
            Workspace::with(|w| w.stats().pooled_elems as f64)
        });
        kalman_obs::register_sampler("dense.workspace.rejected_shape", || {
            Workspace::with(|w| w.stats().rejected_shape as f64)
        });
        kalman_obs::register_sampler("dense.workspace.rejected_full", || {
            Workspace::with(|w| w.stats().rejected_full as f64)
        });
    });
}

/// The per-thread scratch arena: size-classed free lists of `Vec<f64>` and
/// `Vec<usize>` buffers.
///
/// Most code never touches this type directly — `Matrix` construction and
/// `Drop` go through it automatically — but hot loops that need raw scratch
/// (the blocked GEMM's packing panels, the QR factors' `tau` vectors) check
/// buffers out and back in explicitly via [`Workspace::with`].
#[derive(Debug, Default)]
pub struct Workspace {
    /// `f64` buffers; class `c` holds buffers of capacity exactly `2^c`.
    f64_pool: Vec<Vec<Vec<f64>>>,
    /// `usize` buffers, same classing.
    usize_pool: Vec<Vec<Vec<usize>>>,
    hits: u64,
    misses: u64,
    pooled_elems: usize,
    rejected_shape: u64,
    rejected_full: u64,
}

fn class_of(len: usize) -> Option<usize> {
    if len == 0 {
        return None;
    }
    let class = usize::BITS as usize - (len - 1).leading_zeros() as usize;
    let class = class.max(MIN_CLASS); // round tiny buffers up to 16 elements
    (class <= MAX_CLASS).then_some(class)
}

impl Workspace {
    /// Runs `f` with the calling thread's workspace.
    ///
    /// # Panics
    ///
    /// Panics if called re-entrantly from within another `with` closure
    /// (the crate's own kernels never do).
    pub fn with<R>(f: impl FnOnce(&mut Workspace) -> R) -> R {
        WORKSPACE.with(|ws| f(&mut ws.borrow_mut()))
    }

    /// Checks out a zero-filled `f64` buffer of length `len`.  The zeroing
    /// is part of the contract: `Matrix::zeros` (and through it nearly
    /// every matrix constructor) relies on it.
    pub fn take_f64(&mut self, len: usize) -> Vec<f64> {
        if !pooling_enabled() || class_of(len).is_none() {
            // Straight from the allocator, which hands out zeroed pages.
            self.misses += 1;
            return vec![0.0; len];
        }
        let mut buf = self.take_f64_empty(len);
        buf.resize(len, 0.0);
        buf
    }

    /// Checks out an *empty* `f64` buffer with room for `len` elements, for
    /// callers that append every element themselves (`extend_from_slice`)
    /// and so would overwrite all of [`Workspace::take_f64`]'s zeros.
    pub(crate) fn take_f64_empty(&mut self, len: usize) -> Vec<f64> {
        let Some(class) = class_of(len).filter(|_| pooling_enabled()) else {
            self.misses += 1;
            return Vec::with_capacity(len);
        };
        if let Some(mut buf) = self.f64_pool.get_mut(class).and_then(Vec::pop) {
            self.hits += 1;
            self.pooled_elems -= buf.capacity();
            buf.clear();
            return buf;
        }
        self.misses += 1;
        Vec::with_capacity(1usize << class)
    }

    /// Returns an `f64` buffer to the pool (drops it if the pool is full,
    /// pooling is disabled, or the capacity is not one this pool manages).
    pub fn put_f64(&mut self, buf: Vec<f64>) {
        if !pooling_enabled() {
            return;
        }
        let cap = buf.capacity();
        if cap == 0 || !cap.is_power_of_two() {
            self.rejected_shape += 1;
            return;
        }
        let class = cap.trailing_zeros() as usize;
        if !(MIN_CLASS..=MAX_CLASS).contains(&class) {
            // Below MIN_CLASS no take ever asks for this capacity (requests
            // round up), so pooling it would only strand the buffer.
            self.rejected_shape += 1;
            return;
        }
        if self.f64_pool.len() <= class {
            self.f64_pool.resize_with(class + 1, Vec::new);
        }
        let bucket = &mut self.f64_pool[class];
        if bucket.capacity() == 0 {
            // One-time reservation so bucket growth never reallocates in
            // the steady state the pool exists to keep allocation-free.
            bucket.reserve_exact(class_capacity(class));
        }
        if bucket.len() < class_capacity(class) || arena_active() {
            self.pooled_elems += cap;
            bucket.push(buf);
        } else {
            self.rejected_full += 1;
        }
    }

    /// Checks out a `usize` buffer of length `len`, zero-filled.
    pub fn take_usize(&mut self, len: usize) -> Vec<usize> {
        if pooling_enabled() {
            if let Some(class) = class_of(len) {
                if let Some(mut buf) = self.usize_pool.get_mut(class).and_then(Vec::pop) {
                    self.hits += 1;
                    buf.clear();
                    buf.resize(len, 0);
                    return buf;
                }
                self.misses += 1;
                let mut buf = Vec::with_capacity(1usize << class);
                buf.resize(len, 0);
                return buf;
            }
        }
        self.misses += 1;
        vec![0; len]
    }

    /// Returns a `usize` buffer to the pool.
    pub fn put_usize(&mut self, buf: Vec<usize>) {
        if !pooling_enabled() {
            return;
        }
        let cap = buf.capacity();
        if cap == 0 || !cap.is_power_of_two() {
            return;
        }
        let class = cap.trailing_zeros() as usize;
        if !(MIN_CLASS..=MAX_CLASS).contains(&class) {
            return;
        }
        if self.usize_pool.len() <= class {
            self.usize_pool.resize_with(class + 1, Vec::new);
        }
        let bucket = &mut self.usize_pool[class];
        if bucket.capacity() == 0 {
            bucket.reserve_exact(class_capacity(class));
        }
        if bucket.len() < class_capacity(class) || arena_active() {
            bucket.push(buf);
        }
    }

    /// Current usage counters.
    pub fn stats(&self) -> WorkspaceStats {
        WorkspaceStats {
            hits: self.hits,
            misses: self.misses,
            pooled_elems: self.pooled_elems,
            rejected_shape: self.rejected_shape,
            rejected_full: self.rejected_full,
        }
    }
}

thread_local! {
    static WORKSPACE: RefCell<Workspace> = RefCell::new(Workspace::default());
}

/// Checks out an `f64` buffer from the calling thread's workspace
/// (crate-internal shorthand used by `Matrix` construction).  Falls back to
/// a plain allocation if the workspace is busy (re-entrant use from inside
/// a [`Workspace::with`] closure).
#[inline]
pub(crate) fn take_f64(len: usize) -> Vec<f64> {
    WORKSPACE
        .try_with(|cell| match cell.try_borrow_mut() {
            Ok(mut ws) => ws.take_f64(len),
            Err(_) => vec![0.0; len],
        })
        .unwrap_or_else(|_| vec![0.0; len])
}

/// [`take_f64`] without the zero-fill: an empty buffer with room for `len`
/// elements (see [`Workspace::take_f64_empty`]).
#[inline]
pub(crate) fn take_f64_empty(len: usize) -> Vec<f64> {
    WORKSPACE
        .try_with(|cell| match cell.try_borrow_mut() {
            Ok(mut ws) => ws.take_f64_empty(len),
            Err(_) => Vec::with_capacity(len),
        })
        .unwrap_or_else(|_| Vec::with_capacity(len))
}

/// A pooled copy of `src`, each element written once.
#[inline]
pub(crate) fn take_f64_copy(src: &[f64]) -> Vec<f64> {
    let mut buf = take_f64_empty(src.len());
    buf.extend_from_slice(src);
    buf
}

/// Returns an `f64` buffer to the calling thread's workspace.
#[inline]
pub(crate) fn put_f64(buf: Vec<f64>) {
    if buf.capacity() != 0 {
        let _ = WORKSPACE.try_with(|cell| {
            if let Ok(mut ws) = cell.try_borrow_mut() {
                ws.put_f64(buf);
            }
        });
    }
}

/// Checks out a `usize` buffer from the calling thread's workspace.
#[inline]
pub(crate) fn take_usize(len: usize) -> Vec<usize> {
    WORKSPACE
        .try_with(|cell| match cell.try_borrow_mut() {
            Ok(mut ws) => ws.take_usize(len),
            Err(_) => vec![0; len],
        })
        .unwrap_or_else(|_| vec![0; len])
}

/// Returns a `usize` buffer to the calling thread's workspace.
#[inline]
pub(crate) fn put_usize(buf: Vec<usize>) {
    if buf.capacity() != 0 {
        let _ = WORKSPACE.try_with(|cell| {
            if let Ok(mut ws) = cell.try_borrow_mut() {
                ws.put_usize(buf);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_put_roundtrip_reuses_buffer() {
        let mut ws = Workspace::default();
        let a = ws.take_f64(100);
        assert_eq!(a.len(), 100);
        assert!(a.iter().all(|&x| x == 0.0));
        let cap = a.capacity();
        assert!(cap >= 100 && cap.is_power_of_two());
        ws.put_f64(a);
        assert_eq!(ws.stats().pooled_elems, cap);
        let b = ws.take_f64(70); // same class (128)
        assert_eq!(b.capacity(), cap);
        assert_eq!(ws.stats().hits, 1);
        assert!(b.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn classes_round_up_and_cap() {
        assert_eq!(class_of(0), None);
        assert_eq!(class_of(1), Some(4));
        assert_eq!(class_of(16), Some(4));
        assert_eq!(class_of(17), Some(5));
        assert_eq!(class_of(1 << MAX_CLASS), Some(MAX_CLASS));
        assert_eq!(class_of((1 << MAX_CLASS) + 1), None);
    }

    /// The arena flag is process-global, so the two budget tests must not
    /// overlap (the harness runs tests on multiple threads).
    static BUDGET_TESTS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn bucket_is_bounded() {
        let _lock = BUDGET_TESTS.lock().unwrap_or_else(|p| p.into_inner());
        let mut ws = Workspace::default();
        let cap = class_capacity(6); // buffers of 64 elements
        for _ in 0..(cap + 10) {
            ws.put_f64(Vec::with_capacity(64));
        }
        assert_eq!(ws.stats().pooled_elems, cap * 64);
        assert_eq!(ws.stats().rejected_full, 10);
    }

    #[test]
    fn arena_scope_lifts_class_budgets() {
        let _lock = BUDGET_TESTS.lock().unwrap_or_else(|p| p.into_inner());
        let mut ws = Workspace::default();
        let cap = class_capacity(6); // buffers of 64 elements
        let guard = arena_scope();
        assert!(arena_active());
        for _ in 0..(cap + 10) {
            ws.put_f64(Vec::with_capacity(64));
        }
        // Every buffer retained: the budget is lifted under the scope.
        assert_eq!(ws.stats().pooled_elems, (cap + 10) * 64);
        assert_eq!(ws.stats().rejected_full, 0);
        drop(guard);
        // Back to normal: the over-budget bucket rejects further puts.
        ws.put_f64(Vec::with_capacity(64));
        assert_eq!(ws.stats().rejected_full, 1);
    }

    #[test]
    fn usize_pool_roundtrips() {
        let mut ws = Workspace::default();
        let v = ws.take_usize(10);
        assert_eq!(v.len(), 10);
        ws.put_usize(v);
        let w = ws.take_usize(5);
        assert_eq!(w, vec![0; 5]);
    }
}
