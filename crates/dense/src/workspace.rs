//! Per-worker scratch workspace: a size-classed buffer recycler that makes
//! the hot smoothing loops allocation-free in steady state.
//!
//! Every [`Matrix`](crate::Matrix) allocation in this crate is routed
//! through a thread-local [`Workspace`]: buffers are handed out from
//! eighth-octave size-class free lists and returned when the matrix is
//! dropped (see `Drop for Matrix`), so a loop that repeatedly builds and
//! discards temporaries — the odd-even elimination tasks, SelInv rows,
//! `InfoHead::eliminate`, a streaming smoother's per-flush sweep — performs
//! **zero heap allocations per iteration once the pool has warmed up**.
//! The same pool recycles the index/coefficient vectors of the QR
//! factorizations (`tau`, column-pivot permutations).
//!
//! Design rules (documented in DESIGN.md §"Dense kernels"):
//!
//! * **Eighth-octave classes**: every doubling of the buffer length is
//!   split into eight classes, `2^k · {9/8, 10/8, …, 15/8, 2}` elements, so
//!   a buffer is less than 1.125× the length it was taken for.  The paper's
//!   blocks fit exactly: a 6 × 6 block gets 36 elements, a 48 × 48 one
//!   2304, and their two-block stacks 72 and 4608.  A buffer handed out
//!   again at a longer length of its class makes its tail resident, so the
//!   slack is resident memory.  A power of two keeps a class of exactly its
//!   size.
//! * **Per-worker**: the workspace is a `thread_local`, so parallel batches
//!   need no synchronization and recycling stays deterministic.  A buffer
//!   freed on a different thread than it was taken from simply warms that
//!   thread's pool instead (ownership of buffers is never shared).
//! * **Bounded**: the eight classes of the doubling that ends at `2^o`
//!   elements share one element budget of `max(2^15, 2^o)`, and only
//!   lengths between 2^4 and 2^18 elements are pooled; everything beyond
//!   falls through to the global allocator, so the pool retains at most
//!   ≈ 6.5 MiB per thread.  Callers that execute a batch-scale working set
//!   repeatedly (a `SmoothPlan`) lift the budgets for the duration with
//!   [`arena_scope`], so the pool sizes itself to the plan's recursion
//!   instead of the budgets.
//! * **Disableable**: [`set_pooling`] turns recycling off globally, which
//!   the benchmark harness uses to measure the allocator's contribution.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};

/// Size classes per doubling of the buffer length, as a shift: eight.
const SPACING_BITS: usize = 3;
/// Element budget of one doubling (per thread): the classes of the doubling
/// that ends at `2^o` elements park at most `max(MAX_CLASS_ELEMS, 2^o)`
/// elements between them, so tiny-block-heavy workloads (state dimension 4
/// smoothers juggle hundreds of 16-element buffers at once) stay pooled
/// while each doubling is bounded to ~256 KiB (one largest buffer for the
/// doublings above 2^15).
pub const MAX_CLASS_ELEMS: usize = 1 << 15;
/// Largest pooled size class, the one of `2^18` elements (256 Ki elements
/// = 2 MiB of f64).  Class indices are eighth-octave logarithms: the class
/// of a power of two `2^t` is `8t`, and the seven classes between two
/// powers of two are the indices in between.  Bigger buffers go straight
/// to the global allocator — at that size the allocation cost is amortized
/// by the work done on the buffer, and pooling them would blow the
/// retention bound.  Worst-case retention across all classes is ≈ 6.5 MiB
/// per thread.
pub const MAX_CLASS: usize = 18 << SPACING_BITS;
/// Smallest pooled size class, the one of 16 elements; shorter requests
/// round up to it, and shorter buffers are dropped — `take` never requests
/// below it, so they could never be served.
pub const MIN_CLASS: usize = 4 << SPACING_BITS;

/// Elements in a buffer of size class `class`: `2^t · (8 + r) / 8` for
/// `class = 8t + r`.  Shifts only, as is [`class_of`].
#[inline]
const fn class_size(class: usize) -> usize {
    let fine = (1 << SPACING_BITS) + (class & ((1 << SPACING_BITS) - 1));
    fine << ((class >> SPACING_BITS) - SPACING_BITS)
}

/// The smallest size class holding `len` elements, or `None` above
/// [`MAX_CLASS`].  Lengths up to 16 share [`MIN_CLASS`].
#[inline]
fn class_of(len: usize) -> Option<usize> {
    let len = len.max(class_size(MIN_CLASS));
    if len > class_size(MAX_CLASS) {
        return None;
    }
    // `len - 1` lies in [2^t, 2^(t+1)); its top four bits pick the eighth.
    let t = (usize::BITS - 1 - (len - 1).leading_zeros()) as usize;
    let top = (len - 1) >> (t - SPACING_BITS);
    Some((t << SPACING_BITS) + top + 1 - (1 << SPACING_BITS))
}

/// The doubling `class` belongs to, as the exponent of its largest class:
/// class `8t` and the seven below it form doubling `t`.
#[inline]
const fn doubling_of(class: usize) -> usize {
    (class + (1 << SPACING_BITS) - 1) >> SPACING_BITS
}

/// Elements the classes of `doubling` may park between them.
#[inline]
fn doubling_budget(doubling: usize) -> usize {
    MAX_CLASS_ELEMS.max(1 << doubling)
}

/// Maximum pooled buffers for size class `class` — as many as its
/// doubling's budget holds when the class has the doubling to itself.
fn class_capacity(class: usize) -> usize {
    doubling_budget(doubling_of(class)) / class_size(class)
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

/// Lifts the workspace's retention budgets for the lifetime of the
/// returned guard — the "plan-owned arena" mode of the pool.
///
/// The default budgets (`max(2^15, 2^o)` elements per doubling) bound a
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
/// `len` elements, while the other classes of their doubling park nothing
/// — what [`arena_scope`] lifts.  Callers sizing a reusable
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

/// Why a buffer was not parked.
enum Rejected {
    /// Its capacity is not a pooled class size.
    Shape,
    /// Its doubling's budget is spent.
    Full,
}

/// One element type's free lists.
#[derive(Debug, Default)]
struct Pool<T> {
    /// `buckets[c]` holds buffers of capacity exactly `class_size(c)`.
    buckets: Vec<Vec<Vec<T>>>,
    /// Elements parked in each doubling's classes, charged against
    /// [`doubling_budget`].
    parked: [usize; doubling_of(MAX_CLASS) + 1],
}

impl<T> Pool<T> {
    /// An empty buffer with room for `class_size(class)` elements: the most
    /// recently parked one of its class (`true`), or a fresh one (`false`).
    fn checkout(&mut self, class: usize) -> (Vec<T>, bool) {
        match self.buckets.get_mut(class).and_then(Vec::pop) {
            Some(mut buf) => {
                self.parked[doubling_of(class)] -= buf.capacity();
                buf.clear();
                (buf, true)
            }
            None => (Vec::with_capacity(class_size(class)), false),
        }
    }

    /// Parks `buf` for the next checkout of its class, unless its capacity
    /// is not a class size or (outside an [`arena_scope`]) its doubling's
    /// budget is spent; a refused buffer is dropped.
    fn park(&mut self, buf: Vec<T>) -> Result<(), Rejected> {
        let cap = buf.capacity();
        let class = class_of(cap)
            .filter(|&c| class_size(c) == cap)
            .ok_or(Rejected::Shape)?;
        let doubling = doubling_of(class);
        if self.parked[doubling] + cap > doubling_budget(doubling) && !arena_active() {
            return Err(Rejected::Full);
        }
        if self.buckets.len() <= class {
            self.buckets.resize_with(class + 1, Vec::new);
        }
        let bucket = &mut self.buckets[class];
        if bucket.capacity() == 0 {
            // One-time reservation so bucket growth never reallocates in
            // the steady state the pool exists to keep allocation-free.
            bucket.reserve_exact(class_capacity(class));
        }
        self.parked[doubling] += cap;
        bucket.push(buf);
        Ok(())
    }
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
    /// `f64` buffers; each has the capacity of exactly one size class.
    f64_pool: Pool<f64>,
    /// `usize` buffers, same classing and budgets.
    usize_pool: Pool<usize>,
    hits: u64,
    misses: u64,
    rejected_shape: u64,
    rejected_full: u64,
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
        let (buf, hit) = self.f64_pool.checkout(class);
        self.count_take(hit);
        buf
    }

    /// Returns an `f64` buffer to the pool (drops it if the pool is full,
    /// pooling is disabled, or the capacity is not one this pool manages).
    pub fn put_f64(&mut self, buf: Vec<f64>) {
        if pooling_enabled() {
            let parked = self.f64_pool.park(buf);
            self.count_put(parked);
        }
    }

    /// Checks out a `usize` buffer of length `len`, zero-filled.
    pub fn take_usize(&mut self, len: usize) -> Vec<usize> {
        let Some(class) = class_of(len).filter(|_| pooling_enabled()) else {
            self.misses += 1;
            return vec![0; len];
        };
        let (mut buf, hit) = self.usize_pool.checkout(class);
        self.count_take(hit);
        buf.resize(len, 0);
        buf
    }

    /// Returns a `usize` buffer to the pool.
    pub fn put_usize(&mut self, buf: Vec<usize>) {
        if pooling_enabled() {
            let parked = self.usize_pool.park(buf);
            self.count_put(parked);
        }
    }

    fn count_take(&mut self, hit: bool) {
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
    }

    fn count_put(&mut self, parked: Result<(), Rejected>) {
        match parked {
            Ok(()) => {}
            Err(Rejected::Shape) => self.rejected_shape += 1,
            Err(Rejected::Full) => self.rejected_full += 1,
        }
    }

    /// Current usage counters.
    pub fn stats(&self) -> WorkspaceStats {
        WorkspaceStats {
            hits: self.hits,
            misses: self.misses,
            pooled_elems: self.f64_pool.parked.iter().sum(),
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
        assert_eq!(a.capacity(), 104); // 2^6 · 13/8
        ws.put_f64(a);
        assert_eq!(ws.stats().pooled_elems, 104);
        let b = ws.take_f64(97); // same class
        assert_eq!(b.capacity(), 104);
        assert_eq!(ws.stats().hits, 1);
        assert!(b.iter().all(|&x| x == 0.0));
        ws.put_f64(b);
        let c = ws.take_f64(70); // class 72: the parked 104 stays parked
        assert_eq!(c.capacity(), 72);
        assert_eq!((ws.stats().hits, ws.stats().pooled_elems), (1, 104));
    }

    /// Every class size maps back to its own class; lengths up to 16 share
    /// the smallest class, and nothing past 2^18 elements is pooled.
    #[test]
    fn classes_round_up_and_cap() {
        for class in MIN_CLASS..=MAX_CLASS {
            assert_eq!(class_of(class_size(class)), Some(class), "class {class}");
        }
        assert_eq!(class_size(MIN_CLASS), 16);
        assert_eq!(class_size(MAX_CLASS), 1 << 18);
        assert_eq!(class_of(0), Some(MIN_CLASS));
        assert_eq!(class_of(1), Some(MIN_CLASS));
        assert_eq!(class_of((1 << 18) + 1), None);
    }

    /// Every pooled length gets the smallest class that holds it, and that
    /// class is less than an eighth longer than the length.
    #[test]
    fn slack_stays_below_the_spacing() {
        for len in 16..=(1usize << 18) {
            let class = class_of(len).unwrap();
            let size = class_size(class);
            assert!(size >= len && 8 * size < 9 * len, "len {len} → {size}");
            assert!(
                class == MIN_CLASS || class_size(class - 1) < len,
                "len {len}"
            );
        }
        // The paper's two panels: 6 × 6 and 48 × 48 blocks and their
        // two-block stacks.
        for len in [36, 72, 48 * 48, 2 * 48 * 48] {
            assert_eq!(class_size(class_of(len).unwrap()), len);
        }
    }

    /// Power-of-two lengths (every block at n ∈ {4, 8, 16}) get a class of
    /// exactly their size, with the budget the power-of-two classes had.
    #[test]
    fn powers_of_two_get_an_exact_class() {
        for t in 4..=18 {
            let class = class_of(1 << t).unwrap();
            assert_eq!((class, class_size(class)), (8 * t, 1 << t));
            assert_eq!(budget_for_len(1 << t), (MAX_CLASS_ELEMS >> t).max(1));
        }
    }

    /// The classes of one doubling share its budget, and the budgets add up
    /// to the documented ≈ 6.5 MiB of `f64` per pool.
    #[test]
    fn budgets_stay_within_the_retention_bound() {
        let mut total = 0;
        for doubling in doubling_of(MIN_CLASS)..=doubling_of(MAX_CLASS) {
            total += doubling_budget(doubling);
        }
        assert!(total * 8 <= 13 << 19, "{total} elements");
        for class in MIN_CLASS..=MAX_CLASS {
            let budget = doubling_budget(doubling_of(class));
            assert!(class_capacity(class) >= 1);
            assert!(class_capacity(class) * class_size(class) <= budget);
        }
    }

    /// The arena flag is process-global, so the two budget tests must not
    /// overlap (the harness runs tests on multiple threads).
    static BUDGET_TESTS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn bucket_is_bounded() {
        let _lock = BUDGET_TESTS.lock().unwrap_or_else(|p| p.into_inner());
        let mut ws = Workspace::default();
        let cap = budget_for_len(64);
        for _ in 0..(cap + 10) {
            ws.put_f64(Vec::with_capacity(64));
        }
        assert_eq!(ws.stats().pooled_elems, cap * 64);
        assert_eq!(ws.stats().rejected_full, 10);
        // 48 shares the spent doubling (32, 64]; 80 opens the next one.
        ws.put_f64(Vec::with_capacity(48));
        assert_eq!(ws.stats().rejected_full, 11);
        ws.put_f64(Vec::with_capacity(80));
        assert_eq!(ws.stats().pooled_elems, cap * 64 + 80);
        // A capacity between classes is not pooled.
        ws.put_f64(Vec::with_capacity(100));
        assert_eq!(ws.stats().rejected_shape, 1);
    }

    #[test]
    fn arena_scope_lifts_class_budgets() {
        let _lock = BUDGET_TESTS.lock().unwrap_or_else(|p| p.into_inner());
        let mut ws = Workspace::default();
        let cap = budget_for_len(64);
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
