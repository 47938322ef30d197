//! kalman-lint: the workspace's in-repo static-analysis pass.
//!
//! Four analyses enforce the invariants the Kalman smoothing engine's hot
//! paths depend on but the compiler cannot check:
//!
//! * **alloc** — no heap allocation reachable from the configured hot-path
//!   functions (steady-state smoothing must run out of pre-sized
//!   workspaces);
//! * **panic** — no `.unwrap()` / `.expect()` / panicking macros in the
//!   serving crates' non-test code;
//! * **unsafe** — every `unsafe` site carries an adjacent `// SAFETY:`
//!   comment, and first-party crate roots carry `#![forbid(unsafe_code)]`;
//! * **atomic** — `crates/obs` is an all-`Relaxed` zone, and every other
//!   `Ordering::` use carries a justification comment.
//!
//! The crate deliberately has **zero dependencies**: it ships its own
//! token-level Rust lexer ([`lexer`]), a brace-matching outline parser
//! ([`parse`]), and a small TOML-subset reader ([`config`]).  That keeps
//! the lint runnable in the same offline environment as the build itself.
//!
//! Every finding is an error; there is no grandfathered debt.  Every
//! accepted exception is an inline `// lint: allow(<analysis>, "<reason>")`
//! pragma at the site it excuses.  See `docs/LINTS.md` for the full
//! catalog.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyses;
pub mod config;
pub mod diag;
pub mod driver;
pub mod lexer;
pub mod parse;
