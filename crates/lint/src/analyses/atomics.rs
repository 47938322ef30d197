//! Atomic-ordering discipline: `crates/obs` is an all-`Relaxed` design —
//! its counters are statistical, never synchronization — so any stronger
//! ordering there is a finding.  Everywhere else an `Ordering::` use is a
//! synchronization decision and must carry an adjacent comment justifying
//! the chosen ordering (or an explicit `// lint: allow(atomic, "…")`).

use crate::config::AtomicsConfig;
use crate::diag::{Analysis, FileCtx, Finding};

use super::in_scope;

const ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Words that make an adjacent comment count as an ordering justification.
const JUSTIFICATION_WORDS: &[&str] = &[
    "ordering",
    "relaxed",
    "acquire",
    "release",
    "seqcst",
    "acq",
    "atomic",
    "happens-before",
    "fence",
    "handshake",
    "synchroniz",
];

/// Runs the analysis over every file.
pub fn run(files: &[FileCtx], cfg: &AtomicsConfig) -> Vec<Finding> {
    let mut findings = Vec::new();
    for ctx in files {
        let relaxed_zone = in_scope(&ctx.file.path, &cfg.relaxed_only);
        let f = &ctx.file;
        let n = f.code_len();
        for i in 0..n {
            if f.ct(i).ident() != Some("Ordering") {
                continue;
            }
            if !(f.ct_opt(i + 1).is_some_and(|t| t.is_punct(':'))
                && f.ct_opt(i + 2).is_some_and(|t| t.is_punct(':')))
            {
                continue;
            }
            let Some(which) = f
                .ct_opt(i + 3)
                .and_then(|t| t.ident())
                .filter(|w| ORDERINGS.contains(w))
            else {
                continue;
            };
            let line = f.ct(i + 3).line;
            if relaxed_zone {
                if which != "Relaxed" && ctx.pragma_for(line, Analysis::Atomic).is_none() {
                    findings.push(Finding::new(
                        Analysis::Atomic,
                        &f.path,
                        line,
                        format!(
                            "`Ordering::{which}` in an all-Relaxed crate — the metrics \
                             layer must not smuggle in synchronization; use `Relaxed` or \
                             justify with `// lint: allow(atomic, \"…\")`"
                        ),
                    ));
                }
            } else {
                let justified = ctx.adjacent_comment(line, |text| {
                    let lower = text.to_lowercase();
                    JUSTIFICATION_WORDS.iter().any(|w| lower.contains(w))
                });
                if !justified && ctx.pragma_for(line, Analysis::Atomic).is_none() {
                    findings.push(Finding::new(
                        Analysis::Atomic,
                        &f.path,
                        line,
                        format!(
                            "`Ordering::{which}` without an adjacent justification \
                             comment explaining the choice of memory ordering"
                        ),
                    ));
                }
            }
        }
    }
    findings
}
