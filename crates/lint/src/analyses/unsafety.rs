//! Unsafe audit: every `unsafe` block / fn / impl / trait carries an
//! adjacent `// SAFETY:` comment, and first-party crate roots carry
//! `#![forbid(unsafe_code)]`.
//!
//! For `unsafe fn` declarations a rustdoc `# Safety` section in the doc
//! block directly above is also accepted — that is the idiomatic place for
//! a caller-facing contract, and the audit should not force the same text
//! twice.

use crate::config::UnsafeConfig;
use crate::diag::{Analysis, FileCtx, Finding};

use super::under;

/// Runs the audit over every file, plus the forbid cross-check.
pub fn run(files: &[FileCtx], cfg: &UnsafeConfig) -> Vec<Finding> {
    let mut findings = Vec::new();
    for ctx in files {
        let f = &ctx.file;
        for i in 0..f.code_len() {
            let t = f.ct(i);
            if t.ident() != Some("unsafe") {
                continue;
            }
            let next = f.ct_opt(i + 1);
            let (kind, fn_like) = match next {
                Some(n) if n.is_punct('{') => ("block", false),
                Some(n) if n.ident() == Some("fn") => {
                    // `unsafe fn(…)` in type position is still an unsafe
                    // contract crossing — it needs the comment too.
                    if f.ct_opt(i + 2).is_some_and(|t| t.is_punct('(')) {
                        ("fn-pointer type", true)
                    } else {
                        ("fn", true)
                    }
                }
                Some(n) if n.ident() == Some("impl") => ("impl", false),
                Some(n) if n.ident() == Some("trait") => ("trait", false),
                // `unsafe` in attribute grammar or parse confusion.
                _ => continue,
            };
            let line = t.line;
            let documented = ctx.adjacent_comment(line, |text| {
                text.contains("SAFETY:") || (fn_like && text.contains("# Safety"))
            });
            if documented || ctx.pragma_for(line, Analysis::Unsafe).is_some() {
                continue;
            }
            findings.push(Finding::new(
                Analysis::Unsafe,
                &f.path,
                line,
                format!(
                    "`unsafe` {kind} without an adjacent `// SAFETY:` comment{}",
                    if fn_like {
                        " (or a rustdoc `# Safety` section)"
                    } else {
                        ""
                    }
                ),
            ));
        }
    }
    // ------ `#![forbid(unsafe_code)]` cross-check on crate roots --------
    for dir in &cfg.forbid_crate_dirs {
        for ctx in files {
            let p = ctx.file.path.to_string_lossy().replace('\\', "/");
            let Some(rest) = p.strip_prefix(&format!("{}/", dir.trim_end_matches('/'))) else {
                continue;
            };
            // Exactly `<crate>/src/lib.rs` below the configured dir.
            let mut segs = rest.split('/');
            let krate = segs.next().unwrap_or("");
            if segs.next() != Some("src") || segs.next() != Some("lib.rs") || segs.next().is_some()
            {
                continue;
            }
            let crate_dir = format!("{}/{}", dir.trim_end_matches('/'), krate);
            if cfg
                .forbid_exempt
                .iter()
                .any(|e| under(&ctx.file.path, e) || *e == crate_dir)
            {
                continue;
            }
            if !ctx
                .outline
                .inner_attrs
                .iter()
                .any(|a| a == "forbid(unsafe_code)")
            {
                findings.push(Finding::new(
                    Analysis::Unsafe,
                    &ctx.file.path,
                    1,
                    "first-party crate root missing `#![forbid(unsafe_code)]`",
                ));
            }
        }
    }
    findings
}
