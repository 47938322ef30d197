//! TBB-like parallel primitives for the parallel-in-time Kalman smoothers.
//!
//! The paper's C implementation uses Intel Threading Building Blocks: a
//! work-stealing scheduler plus `tbb::parallel_for` (with an explicit *block
//! size* — the number of iterations executed sequentially per task) and
//! `tbb::parallel_scan` (a generic parallel prefix scan).  This crate
//! reproduces that layer on top of [rayon], whose Cilk-lineage
//! work-stealing scheduler offers the same theoretical guarantees the paper
//! cites, and adds the *compiled sequential twin* the paper benchmarks
//! against: every primitive takes an [`ExecPolicy`], and
//! [`ExecPolicy::Seq`] replaces the parallel template with a plain loop that
//! never touches the scheduler (mirroring the paper's separately compiled
//! sequential builds, §5.1).
//!
//! The scans run one fixed Brent–Kung combine tree under every policy —
//! `Seq` walks the same levels in plain loops — so unlike
//! `tbb::parallel_scan`, whose association follows the grain, a scan is
//! bitwise equal under `Seq` and any `Par` grain or thread count.
//!
//! # Example
//!
//! ```
//! use kalman_par::{ExecPolicy, for_each_mut, inclusive_scan_in_place};
//!
//! let mut v: Vec<u64> = (1..=100).collect();
//! for_each_mut(ExecPolicy::par(), &mut v, |_, x| *x *= 2);
//! inclusive_scan_in_place(ExecPolicy::par(), &mut v, |a, b| a + b);
//! assert_eq!(v[99], 100 * 101); // 2 * (1 + ... + 100)
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod pfor;
mod policy;
mod scan;

pub use pfor::{for_each_index, for_each_mut, join, map_collect};
pub use policy::{
    available_parallelism, current_pool_threads, run_with_threads, ExecPolicy, DEFAULT_GRAIN,
};
pub use scan::{inclusive_scan_in_place, suffix_scan_in_place};
