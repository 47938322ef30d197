//! Panic-freedom: no `.unwrap()` / `.expect(…)` / `panic!` /
//! `unreachable!` / `todo!` / `unimplemented!` in the non-test code of the
//! serving crates.
//!
//! Doc comments (rustdoc examples routinely `.unwrap()`), string literals,
//! `#[cfg(test)]` modules, and `#[test]` functions are all exempt — the
//! first two fall out of the lexer, the last two out of the outline.  A
//! deliberate panic carries `// lint: allow(panic, "<reason>")`.

use crate::config::PanicConfig;
use crate::diag::{Analysis, FileCtx, Finding};

use super::in_scope;

/// Macros whose expansion panics.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
/// `Result`/`Option` methods that panic on the error/none side.
const PANIC_METHODS: &[&str] = &["unwrap", "expect"];

/// Runs the analysis over every in-scope file.
pub fn run(files: &[FileCtx], cfg: &PanicConfig) -> Vec<Finding> {
    let mut findings = Vec::new();
    for ctx in files {
        if !in_scope(&ctx.file.path, &cfg.paths) {
            continue;
        }
        let f = &ctx.file;
        let n = f.code_len();
        for i in 0..n {
            if ctx.outline.in_test(i) {
                continue;
            }
            let t = f.ct(i);
            // `.unwrap(` / `.expect(` — exact method-name match, so
            // `unwrap_or` and friends never trip this.
            if t.is_punct('.') {
                if let Some(m) = f.ct_opt(i + 1).and_then(|t| t.ident()) {
                    if PANIC_METHODS.contains(&m)
                        && f.ct_opt(i + 2).is_some_and(|t| t.is_punct('('))
                    {
                        let line = f.ct(i + 1).line;
                        if ctx.pragma_for(line, Analysis::Panic).is_none() {
                            findings.push(Finding::new(
                                Analysis::Panic,
                                &f.path,
                                line,
                                format!(
                                    "`.{m}()` in non-test serving code — propagate a \
                                     `KalmanError` or justify with \
                                     `// lint: allow(panic, \"…\")`"
                                ),
                            ));
                        }
                    }
                }
            }
            // `panic!` / `unreachable!` / `todo!` / `unimplemented!`.
            if let Some(m) = t.ident() {
                if PANIC_MACROS.contains(&m) && f.ct_opt(i + 1).is_some_and(|t| t.is_punct('!')) {
                    let line = t.line;
                    if ctx.pragma_for(line, Analysis::Panic).is_none() {
                        findings.push(Finding::new(
                            Analysis::Panic,
                            &f.path,
                            line,
                            format!(
                                "`{m}!` in non-test serving code — return an error or \
                                 justify with `// lint: allow(panic, \"…\")`"
                            ),
                        ));
                    }
                }
            }
        }
    }
    findings
}
